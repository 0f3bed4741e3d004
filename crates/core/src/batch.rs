//! Packed campaign execution over the compiled transient kernel.
//!
//! A worker executes a *window* of chunks: up to [`WINDOW_CHUNKS`]
//! chunks whose runs fill sweeps together, concluded together and then
//! folded one chunk at a time, in chunk order. Each phase is timed into
//! the window's [`PhaseTimes`]:
//!
//! 1. **Draw**: the strategy's
//!    [`draw_chunk`](crate::sampling::SamplingStrategy::draw_chunk) gives
//!    each run of a chunk its sample, weight and RNG from
//!    `SplitMix64::for_run(seed, run_index)`, exactly as in the scalar
//!    engine — lane packing never touches the per-run random streams.
//!    The chunk's in-run samples are then stratified by injection cycle,
//!    in `(T_e, run_index)` order, so runs sharing a frame land in the same
//!    sweep.
//! 2. **Lanes**: sweeps of up to [`WIDE_LANES`](xlmc_gatesim::WIDE_LANES)
//!    lanes are filled in that order. A run whose outcome the
//!    [`StrikeMemo`] already knows takes no lane: from a settled handle it
//!    writes its record at once, and under stochastic hardening an
//!    untimed group's run takes its registers. When a chunk's runs are
//!    used up and the sweep still has room, the worker claims and draws
//!    the next chunk into the window, until the window holds
//!    [`WINDOW_CHUNKS`] chunks or has filled a sweep. Once groups repeat,
//!    most runs take no lane, and the window keeps the sweeps full instead
//!    of sweeping a few lanes per chunk.
//! 3. **Sweep**: each sweep propagates its lanes through
//!    [`TransientSim::strike_compiled_with`](xlmc_gatesim::transient::TransientSim)
//!    in one pass over the netlist's compiled program.
//! 4. **Conclude**: each lane's faulty registers, a packed set, go through
//!    the hardening/classification/resume pipeline with its own RNG, into
//!    the run's record: its verdict flags and conclusion-memo slot.
//! 5. **Fold**: each chunk's records are folded into its own partial by
//!    [`fold_chunk`], the scalar engine's fold, which takes the
//!    floating-point sums **in run-index order** and counts each
//!    conclusion key's first run in the chunk as it folds, so the
//!    Welford/Chan statistics and every counter are bit-identical to the
//!    scalar engine's at any thread count, lane assignment and window.
//!
//! Between its draw and its fold a run keeps only its weight and its
//! 8-byte record; its draw and injection cycle are kept only while it
//! waits on a lane, a sweep or its conclusion.

use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

use xlmc_fault::sample::PHASE_BINS;
use xlmc_fault::{AttackSample, LaneStrikes, RadiationSpot};
use xlmc_gatesim::bitparallel::CycleWindow;
use xlmc_gatesim::{
    BatchLane, CompiledStrikeOutcome, CompiledTransientScratch, CycleGroup, CycleValues,
    StrikeOutcome, TransientScratch, WIDE_LANES,
};
use xlmc_netlist::{GateId, GateProgram};

use crate::estimator::{fold_chunk, lap, CampaignKernel, ChunkCycles, ChunkPartial, ChunkRuns};
use crate::flow::{DffMask, FaultRunner, RunRecord};
use crate::metrics::{LatencyHist, LatencyShard, PhaseTimes};
use crate::resume::{ConclusionMemo, ResumeStats, RtlResume};
use crate::sampling::{RunDraw, SamplingStrategy};
use crate::trace::{KernelCounters, TraceSink};
use rand::RngCore;

/// Chunks a worker sweeps together at most. A window's runs wait for its
/// last chunk's sweeps before any of its chunks folds, so a larger window
/// holds more runs and, past an early stop, discards more.
const WINDOW_CHUNKS: usize = 8;
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
    /// before the window goes on.
    Pending,
    /// Every run of it ends the same way: its pulse count, and its record:
    /// the conclusion-memo slot of its post-hardening registers
    /// ([`MASKED_SLOT`](crate::flow::MASKED_SLOT) for none) and the verdict byte
    /// ([`RunRecord::verdict_bits`]). Only where the outcome is a fixed
    /// function of the sample ([`FaultRunner::outcome_is_fixed`]).
    Settled { pulses: u16, verdict: u8, slot: u32 },
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
    /// its run's record (`None` under stochastic hardening).
    fn settle(&mut self, e: u32, phase: u8, pulses: usize, timed: bool, record: Option<RunRecord>) {
        let pulses = u16::try_from(pulses).ok();
        let settled = match (record, pulses) {
            (Some(r), Some(pulses)) => Outcome::Settled {
                pulses,
                verdict: r.verdict_bits(),
                slot: r.slot,
            },
            (None, Some(pulses)) if !timed => Outcome::Untimed { pulses },
            _ => Outcome::Sweep,
        };
        let entry = &mut self.table[e as usize];
        if *entry == Outcome::Pending && timed && record.is_some() {
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

/// One chunk of a window: the campaign chunk, its first run, where its
/// runs start in the window's [`ChunkRuns`], its cycle-memo counts, and
/// the pulses its runs propagated.
#[derive(Debug, Clone, Copy)]
struct WindowChunk {
    chunk: u32,
    start: usize,
    at: usize,
    cycles: ChunkCycles,
    pulses: usize,
}

/// A run still waiting on a lane, a sweep or its conclusion whose draw
/// the window keeps: its index in the window, its injection cycle and its
/// draw.
#[derive(Debug)]
struct Deferred {
    wi: u32,
    te: u64,
    draw: RunDraw,
}

/// The flag of a run reference to the last chunk drawn: `DRAWN | index`
/// names the run at that in-chunk index, any other reference an entry of
/// the sweep's `deferred` runs.
const DRAWN: u32 = 1 << 31;

/// Reusable per-worker buffers for [`run_window_compiled`]. Like
/// [`FlowScratch`](crate::flow::FlowScratch), the RTL resume state —
/// and the compiled kernel's cycle slots, named by `T_e` — is valid against
/// one `(model, evaluation, prechar)` triple only.
#[derive(Default)]
pub(crate) struct BatchChunkScratch {
    /// The window's fold state, its chunks end to end, and the draws and
    /// `T_e` of the last chunk drawn.
    runs: ChunkRuns,
    /// The window's chunks, in the order they were claimed.
    window: Vec<WindowChunk>,
    /// In-chunk indices of the last chunk's in-run samples, in
    /// `(T_e, index)` order, and how many of them the sweeps have taken.
    order: Vec<u32>,
    taken: usize,
    /// Per-cycle bucket offsets of the stratification pass.
    te_counts: Vec<u32>,
    lane_strikes: LaneStrikes,
    /// The runs of the sweep being filled that take a lane or recall
    /// registers and are not in the last chunk drawn.
    deferred: Vec<Deferred>,
    /// The sweep being filled: per lane, its run reference (see
    /// [`DRAWN`]) and the footprint id of the strike-memo entry its result
    /// settles ([`NO_ENTRY`] for none).
    lanes: Vec<(u32, u32)>,
    /// Runs held until the sweep being filled resolves their group.
    held: Vec<Deferred>,
    /// Held runs whose group is resolved, in the order they were held.
    ready: VecDeque<Deferred>,
    /// Runs of the sweep being filled, by reference, that recall an
    /// untimed group's registers under stochastic hardening, each with its
    /// registers in error.
    recalled: Vec<(u32, DffMask)>,
    /// Per lane of the last sweep: its window run and injection cycle.
    lane_runs: Vec<(u32, u64)>,
    /// Per lane of the last sweep: its pulse count.
    lane_pulses: Vec<usize>,
    strike_memo: StrikeMemo,
    ff: RtlResume,
    transient: CompiledTransientScratch,
    strike_out: CompiledStrikeOutcome,
    /// Wall-clock latency of each packed transient sweep — pure
    /// telemetry, harvested per window into its first partial.
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
    /// campaign engine attaches to a finished partial.
    pub(crate) fn take_latency(&mut self) -> LatencyShard {
        LatencyShard {
            kernel_sweep: std::mem::take(&mut self.sweep_hist),
            snapshot_restore: self.ff.take_restore_latency(),
            ..LatencyShard::default()
        }
    }

    /// The window index and injection cycle of run reference `r`.
    fn run_at(&self, r: u32) -> (u32, u64) {
        if r & DRAWN != 0 {
            let ri = (r & !DRAWN) as usize;
            let at = self.window.last().expect("a chunk drawn").at as u32;
            let te = self.runs.te[ri].expect("struck runs inject inside the run");
            (at + ri as u32, te)
        } else {
            let run = &self.deferred[r as usize];
            (run.wi, run.te)
        }
    }

    /// Note each lane's window run and injection cycle in `lane_runs`.
    fn note_lane_runs(&mut self) {
        let mut runs = std::mem::take(&mut self.lane_runs);
        runs.clear();
        runs.extend(self.lanes.iter().map(|&(r, _)| self.run_at(r)));
        self.lane_runs = runs;
    }

    /// The draw of run reference `r`.
    fn draw_mut(&mut self, r: u32) -> &mut RunDraw {
        if r & DRAWN != 0 {
            &mut self.runs.draws[(r & !DRAWN) as usize]
        } else {
            &mut self.deferred[r as usize].draw
        }
    }

    /// Keep the draws of the sweep's lanes and recalls that are still in
    /// the last chunk drawn, which the next draw overwrites.
    fn keep_drawn_lanes(&mut self) {
        let Self {
            runs,
            window,
            deferred,
            lanes,
            recalled,
            ..
        } = self;
        let at = window.last().expect("a chunk drawn").at as u32;
        let refs = lanes.iter_mut().map(|l| &mut l.0);
        for r in refs.chain(recalled.iter_mut().map(|x| &mut x.0)) {
            if *r & DRAWN != 0 {
                let ri = *r & !DRAWN;
                deferred.push(Deferred {
                    wi: at + ri,
                    te: runs.te[ri as usize].expect("struck runs inject inside the run"),
                    draw: runs.draws[ri as usize].clone(),
                });
                *r = (deferred.len() - 1) as u32;
            }
        }
    }
}

impl std::fmt::Debug for BatchChunkScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchChunkScratch").finish_non_exhaustive()
    }
}

/// The position in `window` of the chunk holding window run `wi`.
fn chunk_of(window: &[WindowChunk], wi: u32) -> usize {
    window.partition_point(|c| c.at <= wi as usize) - 1
}

/// Phase 1 for one chunk: draw chunk `chunk`, runs `range`, into the
/// window exactly as the scalar engine draws it, then stratify its in-run
/// samples by injection cycle into `scratch.order`, widening the strike
/// memo to their `T_e` range. Same-frame runs share sweeps (fewer value
/// groups per sweep), and the `(T_e, index)` order keeps the grouping a
/// pure function of the chunk's contents — independent of threads and
/// lane assignment. The chunk's cycle-memo counts are taken here, from
/// its `T_e`, which the window does not keep.
fn draw_next(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    (chunk, range): (usize, Range<usize>),
    scratch: &mut BatchChunkScratch,
    record_provenance: bool,
) {
    let runs = &mut scratch.runs;
    let at = runs.w.len();
    strategy.draw_chunk(seed, range.start as u64..range.end as u64, &mut runs.draws);
    let (target, golden_cycles) = (runner.eval.target_cycle, runner.eval.golden.cycles);
    runs.te.clear();
    runs.te.extend(runs.draws.iter().map(|d| {
        let te = d.sample.injection_cycle(target);
        te.filter(|&te| te < golden_cycles)
    }));
    runs.keep_drawn(record_provenance);
    // Out-of-run: masked without a strike, like the scalar path. Every
    // in-run record is written when its run concludes.
    runs.records.resize(runs.w.len(), RunRecord::MASKED);
    let (cycles, span) = stratify(&runs.te, &mut scratch.order, &mut scratch.te_counts);
    if let Some((lo, hi)) = span {
        scratch.strike_memo.cover(lo, hi);
    }
    scratch.taken = 0;
    scratch.window.push(WindowChunk {
        chunk: u32::try_from(chunk).expect("chunk index fits a memo stamp"),
        start: range.start,
        at,
        cycles,
        pulses: 0,
    });
}

/// The in-run indices of `te` in `(T_e, index)` order, by one counting
/// pass over the chunk's `T_e` range: each run lands in its cycle's bucket
/// in index order, which is the order a `(T_e, index)` sort gives.
/// Returns the chunk's cycle-memo counts, read off the buckets, and that
/// range, `None` when no run is in the run.
fn stratify(
    te: &[Option<u64>],
    order: &mut Vec<u32>,
    counts: &mut Vec<u32>,
) -> (ChunkCycles, Option<(u64, u64)>) {
    order.clear();
    let mut in_run = te.iter().flatten();
    let Some(&first) = in_run.next() else {
        return (ChunkCycles::default(), None);
    };
    let (lo, hi) = in_run.fold((first, first), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    counts.clear();
    counts.resize((hi - lo) as usize + 2, 0);
    for &t in te.iter().flatten() {
        counts[(t - lo) as usize + 1] += 1;
    }
    let distinct = counts.iter().filter(|&&c| c != 0).count();
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
    (ChunkCycles::new(order.len(), distinct), Some((lo, hi)))
}

/// The stable-value groups of one compiled sweep whose lanes inject at
/// cycles `te`, in lane order: one group per distinct cycle. Each chunk's
/// equal cycles are contiguous after stratification, so a lane mostly
/// joins the last group; a cycle met again in the next chunk of a window
/// joins its earlier group.
fn cycle_groups<'c>(
    cycles: &'c CycleWindow,
    te: impl IntoIterator<Item = u64>,
) -> Vec<CycleGroup<'c>> {
    let mut groups: Vec<CycleGroup<'c>> = Vec::new();
    for (lane, t) in te.into_iter().enumerate() {
        let (k, bit) = (lane / 64, 1u64 << (lane % 64));
        match groups.iter_mut().rev().find(|g| g.cycle == t as usize) {
            Some(g) => g.lanes[k] |= bit,
            None => {
                let mut lanes = [0; 4];
                lanes[k] = bit;
                groups.push(cycles.group(t as usize, lanes));
            }
        }
    }
    groups
}

/// Harden and conclude the strike of the sweep's run `r` (a reference,
/// see [`DRAWN`]), its registers in error `regs`, into its record, which
/// it returns.
fn conclude_run(
    runner: &FaultRunner<'_>,
    scratch: &mut BatchChunkScratch,
    memo: &mut ConclusionMemo,
    r: u32,
    mut regs: DffMask,
) -> RunRecord {
    let (wi, te) = scratch.run_at(r);
    runner.harden(&mut regs, &mut scratch.draw_mut(r).rng);
    let record = runner.conclude_with(te, regs, &mut scratch.ff, memo);
    scratch.runs.records[wi as usize] = record;
    record
}

/// Execute a window of chunks through the 256-wide compiled-program
/// kernel: the chunks `claim` hands out, the first one at once and each
/// further one while the window holds fewer than [`WINDOW_CHUNKS`], none
/// of its sweeps has been full and the sweep being filled has room.
/// Pushes one partial per chunk to `out`, in the order the chunks were
/// claimed; nothing when `claim` has no chunk. A window stops growing at
/// its first full sweep: more chunks would then fill no emptier sweep,
/// only add runs that an early stop throws away.
///
/// Each partial equals the scalar [`run_chunk`](crate::estimator)'s for
/// its chunk bit-for-bit: per-run samples, weights, strike outcomes,
/// hardening draws and the fold order are all identical; only the
/// transient propagation is shared across lanes, up to [`WIDE_LANES`] runs
/// of any chunks of the window per sweep of the netlist's levelized
/// [`GateProgram`](xlmc_netlist::GateProgram), and a run whose outcome the
/// worker's [`StrikeMemo`] already knows takes it without a lane. Which
/// runs share a sweep, and so the [`KernelCounters`], depends on what the
/// worker struck before and on the window; no result does. The window's
/// kernel counters and phase times other than the folds go to its first
/// partial. `memo` must be the conclusion memo of every earlier window on
/// `scratch`: the strike memo's handles are its slots.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_window_compiled(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    claim: &mut dyn FnMut() -> Option<(usize, Range<usize>)>,
    scratch: &mut BatchChunkScratch,
    cycles: &CycleWindow,
    memo: &mut ConclusionMemo,
    record_provenance: bool,
    sink: &TraceSink,
    tid: u32,
    out: &mut Vec<(usize, ChunkPartial)>,
) {
    let mut clock = Instant::now();
    let Some(first) = claim() else {
        return;
    };
    let mut phases = PhaseTimes::default();
    scratch.runs.clear();
    scratch.window.clear();
    let window_span = sink.span_on(tid, "campaign", "window");
    let draw_span = sink.span_on(tid, "chunk", "draw");
    draw_next(runner, strategy, seed, first, scratch, record_provenance);
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
    let mut claimable = true;
    loop {
        // Fill a sweep: first the held runs whose group the last sweep
        // resolved, then the runs of the window's last chunk in
        // `(T_e, index)` order, then the next chunk's.
        let strike_span = sink.span_on(tid, "chunk", "strike");
        scratch.lane_strikes.clear();
        scratch.lanes.clear();
        scratch.recalled.clear();
        scratch.deferred.clear();
        while scratch.lanes.len() < WIDE_LANES {
            let Some(run) = scratch.ready.pop_front() else {
                break;
            };
            let k = chunk_of(&scratch.window, run.wi);
            let at = (run.wi, run.te, run.draw.sample);
            scratch.deferred.push(run);
            let r = (scratch.deferred.len() - 1) as u32;
            let pulses = strike_or_recall(runner, scratch, program, period, r, at);
            scratch.window[k].pulses += pulses;
        }
        while scratch.lanes.len() < WIDE_LANES {
            if scratch.taken < scratch.order.len() {
                fill_from_last(runner, scratch, program, period);
            } else if claimable && kc.lane_batches == 0 && scratch.window.len() < WINDOW_CHUNKS {
                // The window's sweeps have room: take the next chunk in.
                phases.lanes_s += lap(&mut clock);
                let draw_span = sink.span_on(tid, "chunk", "draw");
                scratch.keep_drawn_lanes();
                match claim() {
                    Some(next) => {
                        draw_next(runner, strategy, seed, next, scratch, record_provenance)
                    }
                    None => claimable = false,
                }
                drop(draw_span);
                phases.draw_s += lap(&mut clock);
            } else {
                break;
            }
        }
        phases.lanes_s += lap(&mut clock);
        if !scratch.lanes.is_empty() {
            sweep(runner, scratch, cycles, program, &mut kc);
        }
        drop(strike_span);
        phases.sweep_s += lap(&mut clock);

        let conclude_span = sink.span_on(tid, "chunk", "conclude");
        for lane in 0..scratch.lanes.len() {
            let (r, spot) = scratch.lanes[lane];
            let regs = DffMask::from_words(scratch.strike_out.faulty_words(lane));
            let record = conclude_run(runner, scratch, memo, r, regs);
            if spot != NO_ENTRY {
                let (_, te) = scratch.lane_runs[lane];
                let e = scratch.strike_memo.entry(te, spot);
                let timed = scratch.strike_out.timed(lane);
                let pulses = scratch.lane_pulses[lane];
                let record = fixed.then_some(record);
                let phase = scratch.draw_mut(r).sample.phase;
                scratch.strike_memo.settle(e, phase, pulses, timed, record);
            }
        }
        for k in 0..scratch.recalled.len() {
            let (r, regs) = scratch.recalled[k];
            conclude_run(runner, scratch, memo, r, regs);
        }
        drop(conclude_span);
        phases.conclude_s += lap(&mut clock);
        if scratch.lanes.is_empty() {
            break;
        }
        let BatchChunkScratch { held, ready, .. } = scratch;
        ready.extend(held.drain(..));
    }
    drop(window_span);

    // The scalar kernel's fold, chunk by chunk. The pulse counter takes
    // the sweeps' totals and the recalled groups' counts rather than
    // per-run counts.
    let dff_bits = runner.model.mpu.dff_bits();
    let end = scratch.runs.w.len();
    for k in 0..scratch.window.len() {
        let c = scratch.window[k];
        let chunk_span = sink.span_args(tid, "campaign", "chunk", &[("chunk", f64::from(c.chunk))]);
        let fold_span = sink.span_on(tid, "chunk", "fold");
        let runs = c.at..scratch.window.get(k + 1).map_or(end, |n| n.at);
        let mut p = fold_chunk(
            &scratch.runs,
            runs,
            c.start as u64,
            c.cycles,
            memo,
            c.chunk,
            dff_bits,
            record_provenance,
        );
        p.counters.pulses_propagated = c.pulses;
        if k == 0 {
            p.kernel_counters = kc;
            p.latency.phases = phases;
        }
        drop(fold_span);
        drop(chunk_span);
        p.latency.phases.fold_s = lap(&mut clock);
        out.push((c.chunk as usize, p));
    }
}

/// One chunk, runs `start..end`, as a window of its own: its partial.
#[cfg(test)]
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
    record_provenance: bool,
    sink: &TraceSink,
    tid: u32,
) -> ChunkPartial {
    let mut once = Some((chunk as usize, start..end));
    let mut out = Vec::new();
    run_window_compiled(
        runner,
        strategy,
        seed,
        &mut || once.take(),
        scratch,
        cycles,
        memo,
        record_provenance,
        sink,
        tid,
        &mut out,
    );
    out.pop().expect("one chunk, one partial").1
}

/// Fill the sweep from the runs of the window's last chunk, in
/// `(T_e, index)` order, until it is full or they are used up; their
/// recalled pulses go to that chunk.
fn fill_from_last(
    runner: &FaultRunner<'_>,
    scratch: &mut BatchChunkScratch,
    program: &GateProgram,
    period: f64,
) {
    let last = scratch.window.len() - 1;
    let at = scratch.window[last].at as u32;
    let (mut taken, mut pulses) = (scratch.taken, 0);
    while scratch.lanes.len() < WIDE_LANES && taken < scratch.order.len() {
        let ri = scratch.order[taken] as usize;
        taken += 1;
        let (wi, te) = (at + ri as u32, scratch.runs.te[ri]);
        let te = te.expect("struck runs inject inside the run");
        let sample = scratch.runs.draws[ri].sample;
        let r = DRAWN | ri as u32;
        pulses += strike_or_recall(runner, scratch, program, period, r, (wi, te, sample));
    }
    scratch.taken = taken;
    scratch.window[last].pulses += pulses;
}

/// Give the run of reference `r` (see [`DRAWN`]), run `wi` of the window,
/// injecting at `te` and drawn as `sample`, a lane in the sweep being
/// filled, or hold it until that sweep resolves its group, or recall its
/// outcome: from a settled handle straight into its record, or, under
/// stochastic hardening, an untimed group's registers into
/// `scratch.recalled`. Returns the pulses a recalled run propagates.
#[inline(always)]
fn strike_or_recall(
    runner: &FaultRunner<'_>,
    scratch: &mut BatchChunkScratch,
    program: &GateProgram,
    period: f64,
    r: u32,
    (wi, te, sample): (u32, u64, AttackSample),
) -> usize {
    let placement = &runner.model.placement;
    if let Some(mf) = runner.multi_fault {
        // The double glitch bypasses the memo. Its second-spot entropy word
        // comes off the run's own stream here — the same stream position
        // as the scalar engine, which draws it right after the primary
        // spot query and before the hardening draws in
        // `FaultRunner::harden`.
        let spot2 = mf.second_spot(scratch.draw_mut(r).rng.next_u64());
        let lanes = &mut scratch.lane_strikes;
        lanes.push_sample_with(&sample, Some(&spot2), placement, program, period);
        scratch.lanes.push((r, NO_ENTRY));
        return 0;
    }
    let spot = RadiationSpot {
        center: sample.center,
        radius: sample.radius,
    };
    let spot = scratch.lane_strikes.spot_id(&spot, placement, program);
    let e = scratch.strike_memo.entry(te, spot);
    let outcome = scratch.strike_memo.outcome(e, sample.phase);
    let settles = match *outcome {
        Outcome::Unseen => {
            *outcome = Outcome::Pending;
            spot
        }
        Outcome::Pending => {
            let draw = scratch.draw_mut(r).clone();
            scratch.held.push(Deferred { wi, te, draw });
            return 0;
        }
        Outcome::Sweep => NO_ENTRY,
        Outcome::Timed { .. } => unreachable!("a timed entry resolves to its phase bin"),
        Outcome::Settled {
            pulses,
            verdict,
            slot,
        } => {
            scratch.strike_memo.hits += 1;
            scratch.strike_memo.handle_recalls += 1;
            scratch.runs.records[wi as usize] = RunRecord::from_verdict_bits(slot, verdict);
            return usize::from(pulses);
        }
        Outcome::Untimed { pulses } => {
            scratch.strike_memo.hits += 1;
            let upset = scratch.lane_strikes.footprint(spot).dffs().iter();
            let regs = upset.map(|&i| i as usize).collect();
            scratch.recalled.push((r, regs));
            return usize::from(pulses);
        }
    };
    let time = sample.strike_time_ps(period);
    scratch.lane_strikes.push_lane(spot, None, time);
    scratch.lanes.push((r, settles));
    0
}

/// Strike the filled sweep's lanes, count the sweep into `kc` and each
/// chunk's pulses, and leave each lane's pulse count in
/// `scratch.lane_pulses` when a lane settles a strike-memo entry.
fn sweep(
    runner: &FaultRunner<'_>,
    scratch: &mut BatchChunkScratch,
    cycles: &CycleWindow,
    program: &GateProgram,
    kc: &mut KernelCounters,
) {
    let n = scratch.lanes.len();
    scratch.note_lane_runs();
    let groups = cycle_groups(cycles, scratch.lane_runs.iter().map(|&(_, te)| te));
    // The chunks of the first and last window runs among the lanes.
    let (first, last) = (scratch.lane_runs.iter())
        .fold((u32::MAX, 0), |(lo, hi), &(wi, _)| (lo.min(wi), hi.max(wi)));
    let (lo, hi) = (
        chunk_of(&scratch.window, first),
        chunk_of(&scratch.window, last),
    );
    let BatchChunkScratch {
        window,
        lanes,
        lane_runs,
        lane_pulses,
        lane_strikes,
        transient,
        strike_out: out,
        sweep_hist,
        ..
    } = scratch;
    let batch = batch_lanes(lane_strikes);
    let t_sweep = Instant::now();
    runner.model.transient.strike_compiled_with(
        runner.model.mpu.netlist(),
        program,
        &groups,
        &batch,
        transient,
        out,
    );
    sweep_hist.record(t_sweep.elapsed().as_secs_f64());
    drop(batch);
    kc.lane_batches += 1;
    kc.lanes_occupied += n;
    kc.frame_groups += groups.len();
    kc.gates_visited += out.gates_visited();
    kc.timed_lanes += out.timed_lanes();
    kc.resimulated_lanes += out.resimulated_lanes();
    // One chunk takes the sweep's total, several each their lanes' counts.
    if lo != hi || lanes.iter().any(|&(_, e)| e != NO_ENTRY) {
        lane_pulses.resize(n, 0);
        out.pulses_per_lane(&mut lane_pulses[..n]);
    }
    if lo == hi {
        window[lo].pulses += out.pulses_total();
    } else {
        for (&(wi, _), &pulses) in lane_runs.iter().zip(lane_pulses.iter()) {
            let k = chunk_of(window, wi);
            window[k].pulses += pulses;
        }
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
    draw_next(runner, strategy, seed, (0, 0..runs), &mut scratch, false);
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
                    let te = batch
                        .iter()
                        .map(|&ri| scratch.runs.te[ri as usize].unwrap());
                    let groups = cycle_groups(&cycles, te);
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
    use crate::flow::{FlowScratch, StrikeClass, MASKED_SLOT};
    use crate::harden::{DupConfigVote, HardenedSet, HardenedVariant, HardeningModel, ScfiFsm};
    use crate::model::{Evaluation, SystemModel};
    use crate::precharacterize::Precharacterization;
    use crate::rng::SplitMix64;
    use crate::sampling::{
        baseline_distribution, ConeSampling, ExperimentConfig, ImportanceSampling, RandomSampling,
    };
    use crate::trace::CounterScratch;
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
        /// left out, on random `T_e` vectors with repeats and wide spans,
        /// and its cycle-memo counts are the counter scratch's.
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
            let (cycles, _) = stratify(&te, &mut order, &mut counts);
            proptest::prop_assert_eq!(order, want);
            let counted = ChunkCycles::of(&mut CounterScratch::default(), &te);
            proptest::prop_assert_eq!(cycles, counted);
        }
    }

    /// Widening the strike memo's `T_e` range keeps every entry under its
    /// group, rows grow by footprint id, a timed group's first lane opens
    /// its per-phase row, and an outcome that cannot be kept is swept.
    #[test]
    fn strike_memo_keeps_entries_as_it_grows() {
        let mut memo = StrikeMemo::default();
        let settle = |memo: &mut StrikeMemo, e, phase, pulses, timed, record| {
            *memo.outcome(e, phase) = Outcome::Pending;
            memo.settle(e, phase, pulses, timed, record);
        };
        let record = |slot| RunRecord {
            slot,
            class: StrikeClass::Mixed,
            success: slot % 2 == 1,
            analytic: false,
        };
        let settled = |pulses, slot| {
            let r: RunRecord = if slot == MASKED_SLOT {
                RunRecord::MASKED
            } else {
                record(slot)
            };
            assert_eq!(RunRecord::from_verdict_bits(slot, r.verdict_bits()), r);
            Outcome::Settled {
                pulses,
                verdict: r.verdict_bits(),
                slot,
            }
        };
        memo.cover(10, 12);
        let e = memo.entry(11, 2);
        settle(&mut memo, e, 0, 7, false, Some(record(3)));
        let f = memo.entry(12, 0);
        settle(&mut memo, f, 5, 9, true, Some(record(4)));
        memo.cover(8, 9);
        memo.cover(8, 15);
        assert_eq!((memo.te_lo, memo.te_len), (8, 8));
        // An untimed group answers every phase; a timed one per phase.
        let e = memo.entry(11, 2);
        let untimed = settled(7, 3);
        assert_eq!(memo.table[e as usize], untimed);
        assert_eq!(*memo.outcome(e, 6), untimed);
        let f = memo.entry(12, 0);
        assert_eq!(memo.table[f as usize], Outcome::Timed { row: 0 });
        assert_eq!(*memo.outcome(f, 5), settled(9, 4));
        assert_eq!(*memo.outcome(f, 4), Outcome::Unseen);
        settle(&mut memo, f, 4, 2, true, Some(RunRecord::MASKED));
        assert_eq!(*memo.outcome(f, 4), settled(2, MASKED_SLOT));
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
        settle(
            &mut memo,
            k,
            1,
            usize::from(u16::MAX) + 1,
            false,
            Some(record(0)),
        );
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
        (r.success, r.class, r.analytic, bits, scratch.runs.w[i])
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
                let groups = cycle_groups(&window, te.iter().map(|t| t.unwrap()));
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
    /// the double glitch: a cold chunk, then a window of two warm ones on
    /// the same worker's memos (outcome handles engaged where the outcome
    /// is fixed), each folded again with provenance off and on and counted
    /// against a per-chunk set of the keys seen. The kernel's own partial
    /// is the fold with provenance plus its pulse and kernel counters; the
    /// kernel counters are the window's, on its first partial.
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
                let sink = TraceSink::disabled();
                // Chunk 0 alone, then chunks 1 and 2 in as many windows as
                // their sweeps make.
                for chunks in [0..1usize, 1..3] {
                    let mut claim = chunks.clone().map(|c| (c, c * 512..(c + 1) * 512));
                    let mut parts = Vec::new();
                    while let Some(next) = claim.next() {
                        let mut first = Some(next);
                        parts.clear();
                        run_window_compiled(
                            &runner,
                            &strat,
                            5,
                            &mut || first.take().or_else(|| claim.next()),
                            &mut scratch,
                            &window,
                            &mut memo,
                            true,
                            &sink,
                            0,
                            &mut parts,
                        );
                        for (k, (chunk, kernel)) in parts.iter().enumerate() {
                            let (start, at) = (chunk * 512, k * 512);
                            let runs = &scratch.runs;
                            for provenance in [false, true] {
                                let ctx = format!(
                                    "{} {defense} chunk {chunk} provenance {provenance}",
                                    eval.workload.name
                                );
                                // A fold of its own, after the kernel's: a stamp
                                // no other fold uses.
                                let refold = 1000 + 2 * *chunk as u32 + u32::from(provenance);
                                let te: Vec<Option<u64>> = runs.traced[at..at + 512]
                                    .iter()
                                    .map(|&(_, te)| te)
                                    .collect();
                                let mut fresh = CounterScratch::default();
                                let got = fold_chunk(
                                    runs,
                                    at..at + 512,
                                    start as u64,
                                    ChunkCycles::of(&mut fresh, &te),
                                    &mut memo,
                                    refold,
                                    dff_bits,
                                    provenance,
                                );
                                let mut want = ChunkPartial {
                                    level: crate::multilevel::LEVEL_GATE,
                                    ..ChunkPartial::default()
                                };
                                fresh.begin_chunk();
                                let mut seen = std::collections::HashSet::new();
                                for i in at..at + 512 {
                                    let r = &runs.records[i];
                                    let regs = match r.slot {
                                        MASKED_SLOT => DffMask::EMPTY,
                                        slot => memo.slot(slot).regs,
                                    };
                                    let draw = RunDraw {
                                        sample: runs.traced[i].0,
                                        w: runs.w[i],
                                        rng: SplitMix64::for_run(5, (start + i - at) as u64),
                                    };
                                    crate::estimator::fold_run(
                                        &mut want,
                                        &mut fresh,
                                        (start + i - at) as u64,
                                        &draw,
                                        runs.traced[i].1,
                                        r,
                                        regs,
                                        r.slot != MASKED_SLOT && seen.insert(r.slot),
                                        dff_bits,
                                        provenance,
                                    );
                                }
                                assert_same_partial(&got, &want, &ctx);
                                if provenance {
                                    want.counters.pulses_propagated =
                                        kernel.counters.pulses_propagated;
                                    want.kernel_counters = kernel.kernel_counters;
                                    assert_same_partial(kernel, &want, &format!("{ctx} kernel"));
                                }
                            }
                            attributed += usize::from(kernel.successes > 0);
                        }
                    }
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

    /// The conclusion-memo counters are taken as each chunk folds, so the
    /// order a window's runs were concluded in does not move them. The
    /// runs of a window of chunks are concluded run index by run index,
    /// each across the chunks in reverse chunk order, so a key met in
    /// chunks k and k+1 is probed by k+1, then k, then k+1 again; then the
    /// chunks fold in order on the one memo. Each chunk's
    /// `conclusion_memo_{hits,misses}`, `conclusions_{analytic,rtl}` and
    /// `soc_{clones,restores}`, and every other counter, equal the per-run
    /// fold's with a per-chunk set of the keys seen, on all five goals
    /// under no defense, the voter and the SCFI code.
    #[test]
    fn window_folds_count_keys_whatever_the_conclusion_order() {
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
        let dff_bits = model.mpu.dff_bits();
        let (chunks, seed) = (3usize, 19u64);
        let mut shared = 0;
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
                let name = format!(
                    "{} {}",
                    eval.workload.name,
                    hardening.map_or("none", HardenedVariant::name)
                );
                let mut memo = ConclusionMemo::default();
                let mut flow = FlowScratch::default();
                let mut runs = ChunkRuns::default();
                let mut draws = Vec::new();
                for c in 0..chunks {
                    strat.draw_chunk(
                        seed,
                        (c * 512) as u64..((c + 1) * 512) as u64,
                        &mut runs.draws,
                    );
                    draws.append(&mut runs.draws);
                }
                runs.w.extend(draws.iter().map(|d| d.w));
                runs.records.resize(draws.len(), RunRecord::MASKED);
                let mut te = vec![None; draws.len()];
                let mut regs = vec![DffMask::EMPTY; draws.len()];
                let mut chunks_of_slot = std::collections::HashMap::new();
                for i in (0..512).rev() {
                    for c in (0..chunks).rev() {
                        let k = c * 512 + i;
                        let d = &mut draws[k];
                        let v =
                            runner.run_shared(&d.sample, &mut d.rng, &mut flow, Some(&mut memo));
                        (runs.records[k], te[k], regs[k]) = (v.record, v.injection_cycle, v.regs);
                        if v.record.slot != MASKED_SLOT {
                            let seen = chunks_of_slot.entry(v.record.slot).or_insert(0u32);
                            *seen |= 1 << c;
                        }
                    }
                }
                shared += chunks_of_slot
                    .values()
                    .filter(|m| m.count_ones() > 1)
                    .count();
                for c in 0..chunks {
                    let range = c * 512..(c + 1) * 512;
                    let mut ctr = CounterScratch::default();
                    let cycles = ChunkCycles::of(&mut ctr, &te[range.clone()]);
                    let start = range.start as u64;
                    let got = fold_chunk(
                        &runs,
                        range.clone(),
                        start,
                        cycles,
                        &mut memo,
                        c as u32,
                        dff_bits,
                        false,
                    );
                    let mut want = ChunkPartial::default();
                    ctr.begin_chunk();
                    let mut seen = std::collections::HashSet::new();
                    for k in range {
                        let r = &runs.records[k];
                        let first = r.slot != MASKED_SLOT && seen.insert(r.slot);
                        crate::estimator::fold_run(
                            &mut want, &mut ctr, k as u64, &draws[k], te[k], r, regs[k], first,
                            dff_bits, false,
                        );
                    }
                    let ctx = format!("{name} chunk {c}");
                    let (g, w) = (&got.counters, &want.counters);
                    assert_eq!(
                        (g.conclusion_memo_hits, g.conclusion_memo_misses),
                        (w.conclusion_memo_hits, w.conclusion_memo_misses),
                        "{ctx}: conclusion memo"
                    );
                    assert_eq!(
                        (g.conclusions_analytic, g.conclusions_rtl),
                        (w.conclusions_analytic, w.conclusions_rtl),
                        "{ctx}: conclusions"
                    );
                    assert_eq!(
                        (g.soc_clones, g.soc_restores),
                        (w.soc_clones, w.soc_restores),
                        "{ctx}: SoC"
                    );
                    assert_eq!(g, w, "{ctx}: counters");
                    assert_eq!(got.class_counts, want.class_counts, "{ctx}");
                }
            }
        }
        assert!(shared > 0, "some key must be concluded in two chunks");
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
