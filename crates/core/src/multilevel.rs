//! Two-level multilevel Monte Carlo (MLMC) over the cross-level flow.
//!
//! The paper's estimator pays a gate-level transient simulation on every
//! sampled run. Following "Representing Gate-Level SET Faults by Multiple
//! SEU Faults at RTL" (arXiv:2103.05106), a gate-level SET is well modeled
//! by the multi-bit SEU set it can latch — which this module derives once
//! per (cell, injection cycle) from the pre-characterization
//! ([`SetToSeuMap`], with the transient model's logical masking,
//! electrical attenuation and latching windows folded in statically) — so
//! a **cheap level-0 sampler** can skip the netlist entirely: map the
//! sampled spot, cycle and phase to its SEU set, then run the existing
//! downstream conclusion machinery (hardening filter, classification,
//! analytic evaluation or RTL resume). Writing `r = w·e_rtl`
//! for the level-0 weighted indicator
//! and `g = w·e_gate` for the full flow's, the telescoped identity
//!
//! ```text
//! E[g] = E[r] + E[g − r]
//! ```
//!
//! turns the campaign into two streams: many cheap level-0 runs estimate
//! `E[r]`, and a few **coupled** level-1 runs — the *same* `(seed,
//! run-index)` fault evaluated at both levels under twin RNG streams —
//! estimate the correction `E[g − r]`. Coupling is what makes the
//! correction low-variance: both levels see the identical sample, weight
//! and hardening draws, so `g − r` is nonzero only where multi-cell
//! transient interaction actually changes the verdict.
//!
//! [`MlmcEstimator`] holds the fixed per-level cost model and the sample
//! allocation: after a fixed pilot of alternating chunks, the live Welford
//! `s²` of each level picks the level-1 share `n₁/n ∝ √(s₁²/c₁)` that
//! minimizes total cost at a given variance target, and [`MlmcPlan`]
//! unrolls that share into a deterministic per-chunk level schedule
//! (Bresenham rounding — a pure function of the ratio, so merge,
//! checkpoint and resume stay bit-deterministic at any thread count).
//!
//! The per-chunk executors here are deliberately scalar: the correction
//! level is sampled rarely and the cheap level never touches the netlist,
//! so `--kernel` has nothing to pack — which also makes MLMC results
//! trivially identical across both kernels.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::estimator::ChunkPartial;
use crate::flow::{FaultRunner, FlowScratch, RunVerdict, StrikeClass};
use crate::model::{Evaluation, SystemModel};
use crate::precharacterize::Precharacterization;
use crate::resume::{ConclusionMemo, ResumeStats, RtlResume};
use crate::sampling::{draw_run, RunDraw, SamplingStrategy};
use crate::trace::{CounterScratch, ProvenanceRecord};
use rand::Rng;
use xlmc_fault::{AttackSample, RadiationSpot};
use xlmc_netlist::{CellKind, GateId, Topology};
use xlmc_soc::MpuBit;

/// Chunk-level tag: the cheap pure-RTL sampler.
pub(crate) const LEVEL_RTL: u8 = 0;
/// Chunk-level tag: the gate-accurate sampler (and, under MLMC, the
/// coupled correction term).
pub(crate) const LEVEL_GATE: u8 = 1;

/// One statically-timed strike → latch path of a combinational cell: the
/// register bit its pulse can reach, and the sample-independent timing of
/// the pulse when it arrives at that register's D pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeuPath {
    /// The register bit at the end of the path.
    pub bit: MpuBit,
    /// Accumulated gate delay from the struck cell to the D pin, ps. The
    /// pulse arrives at `strike_time + delay_ps`.
    pub delay_ps: f64,
    /// Surviving pulse width at the D pin after per-level electrical
    /// attenuation, ps.
    pub duration_ps: f64,
}

/// The SEU set one sampled cell maps to at RTL.
#[derive(Debug, Clone, PartialEq)]
pub struct SetToSeuEntry {
    /// Register bits the cell's transient can latch into (sorted, deduped):
    /// the cell's own bit for a register; for a combinational cell, the
    /// union over injection cycles of its timed-path targets.
    pub bits: Vec<MpuBit>,
    /// Per-injection-cycle timed paths of a combinational cell (indexed by
    /// `te`; empty for registers). At query time a path contributes its
    /// bit only when the sampled strike phase lands the pulse inside the
    /// latching window.
    paths_by_te: Vec<Vec<SeuPath>>,
    /// Whether every reachable bit shares one register class — one of the
    /// two conditions for the SET being exactly representable at RTL.
    pub single_class: bool,
    /// Whether the cell *is* a mapped register: a radius-0 strike on it is
    /// the same single-bit SEU at both levels (no pulse shaping between
    /// the strike and the latch), so the correction term is provably zero.
    pub exact: bool,
}

impl SetToSeuEntry {
    /// The statically-masked timed paths of this cell for injection cycle
    /// `te` (empty for registers and out-of-range cycles).
    pub fn paths_at(&self, te: u64) -> &[SeuPath] {
        self.paths_by_te
            .get(te as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// The prechar-derived SET → multi-bit-SEU map of arXiv:2103.05106, for
/// every cell of the sample space.
///
/// A register cell maps to its own bit (a strike flips the storage node
/// regardless of timing). A combinational cell maps to **statically timed
/// and masked paths**, one set per injection cycle: for a *single-cell*
/// strike every input of [`xlmc_gatesim::transient::TransientSim`] except
/// the strike phase — the golden run's cycle values (logical masking), the
/// path delays and the per-level attenuation (electrical masking) — is a
/// pure function of `(cell, te)`, so the sim's propagation recurrences can
/// be run once per `(cell, te)` at build time. At query time only the
/// strike phase remains free: a path latches exactly when
/// `strike_time + delay` lands its surviving pulse inside the
/// `[T − setup, T + hold]` window, mirroring the sim's check at each D
/// pin. Level 0 is therefore **exact for radius-0 samples**; all that is
/// left to the coupled level-1 correction is multi-cell pulse interaction
/// (merged transients, reconvergent cancellation) on radius > 0 strikes.
#[derive(Debug, Clone)]
pub struct SetToSeuMap {
    entries: HashMap<GateId, SetToSeuEntry>,
    /// Clock period of the transient model the timings were derived from.
    clock_period_ps: f64,
    /// Latching window `[T − setup, T + hold]` of the same model.
    window_lo: f64,
    window_hi: f64,
}

impl SetToSeuMap {
    /// Derive the map for every sample-space cell against `eval`'s golden
    /// run, one masked path set per injection cycle.
    pub fn build(model: &SystemModel, eval: &Evaluation, prechar: &Precharacterization) -> Self {
        let netlist = model.mpu.netlist();
        let fanouts = netlist.fanouts();
        let cfg = model.transient.config();
        let golden = &eval.golden;
        let cycles = golden.cycles as usize;
        // Topological ranks, exactly as the transient sim orders its
        // worklist (u32::MAX marks sources and DFFs — never propagated
        // through).
        let topo = Topology::new(netlist).expect("the MPU netlist is loop-free");
        let mut rank = vec![u32::MAX; netlist.len()];
        for (r, &id) in topo.order().iter().enumerate() {
            rank[id.index()] = r as u32;
        }
        // Seed every entry; combinational cells get their per-te path
        // tables filled in the sweep below.
        let mut entries: HashMap<GateId, SetToSeuEntry> = HashMap::new();
        let mut comb: Vec<GateId> = Vec::new();
        for &g in &prechar.space.all_cells() {
            let mut bits: Vec<MpuBit> = Vec::new();
            let mut paths_by_te: Vec<Vec<SeuPath>> = Vec::new();
            let mut exact = false;
            match netlist.gate(g).kind {
                CellKind::Dff => {
                    if let Some(b) = model.mpu.bit_of(g) {
                        bits.push(b);
                        exact = true;
                    }
                }
                CellKind::Input | CellKind::Const(_) | CellKind::Output => {}
                _ => {
                    paths_by_te = vec![Vec::new(); cycles];
                    comb.push(g);
                }
            }
            entries.insert(
                g,
                SetToSeuEntry {
                    bits,
                    paths_by_te,
                    single_class: false,
                    exact,
                },
            );
        }
        // One pulse sweep per (cycle, combinational cell): the transient
        // sim's rank-ordered propagation — logical masking against the
        // cycle's stable values, electrical attenuation, death below the
        // minimum width — with the strike moment left symbolic (delays
        // accumulate relative to it).
        let mut pulse: Vec<Option<(f64, f64)>> = vec![None; netlist.len()];
        let mut touched: Vec<GateId> = Vec::new();
        let mut queue: BinaryHeap<Reverse<(u32, GateId)>> = BinaryHeap::new();
        let mut queued: Vec<bool> = vec![false; netlist.len()];
        let mut enqueued: Vec<GateId> = Vec::new();
        let mut ins: Vec<bool> = Vec::new();
        let mut pulsing: Vec<usize> = Vec::new();
        for te in 0..cycles {
            let state = model.mpu.state_vector(&golden.mpu_states[te]);
            let stim = &golden.stimulus[te];
            let inputs = model.mpu.input_values(stim.request, stim.cfg_write);
            let values = model.cycle_sim.eval(netlist, &state, &inputs);
            for &g in &comb {
                pulse[g.index()] = Some((0.0, cfg.initial_duration_ps));
                touched.push(g);
                for &c in fanouts.of(g) {
                    if rank[c.index()] != u32::MAX && !queued[c.index()] {
                        queued[c.index()] = true;
                        enqueued.push(c);
                        queue.push(Reverse((rank[c.index()], c)));
                    }
                }
                while let Some(Reverse((_, id))) = queue.pop() {
                    if pulse[id.index()].is_some() {
                        continue;
                    }
                    let gate = netlist.gate(id);
                    pulsing.clear();
                    for (i, f) in gate.fanin.iter().enumerate() {
                        if pulse[f.index()].is_some() {
                            pulsing.push(i);
                        }
                    }
                    if pulsing.is_empty() {
                        continue;
                    }
                    // Logical masking: does flipping the pulsing inputs
                    // flip the output under the cycle's stable values?
                    ins.clear();
                    ins.extend(gate.fanin.iter().map(|f| values.value(*f)));
                    let nominal = gate.kind.eval(&ins);
                    for &i in &pulsing {
                        ins[i] = !ins[i];
                    }
                    if gate.kind.eval(&ins) == nominal {
                        continue;
                    }
                    // Electrical masking: the pulse dies once narrower
                    // than the minimum propagatable width.
                    let width = pulsing
                        .iter()
                        .map(|&i| pulse[gate.fanin[i].index()].unwrap().1)
                        .fold(0.0f64, f64::max)
                        - cfg.attenuation_ps;
                    if width < cfg.min_duration_ps {
                        continue;
                    }
                    let delay = pulsing
                        .iter()
                        .map(|&i| pulse[gate.fanin[i].index()].unwrap().0)
                        .fold(0.0f64, f64::max)
                        + gate.kind.delay_ps();
                    pulse[id.index()] = Some((delay, width));
                    touched.push(id);
                    for &c in fanouts.of(id) {
                        if rank[c.index()] != u32::MAX && !queued[c.index()] {
                            queued[c.index()] = true;
                            enqueued.push(c);
                            queue.push(Reverse((rank[c.index()], c)));
                        }
                    }
                }
                // A path per register whose D pin carries a surviving
                // pulse; the latching-window check is deferred to query
                // time (only the strike phase is sample-dependent).
                let entry = entries.get_mut(&g).expect("seeded above");
                for &t in &touched {
                    let (delay_ps, duration_ps) = pulse[t.index()].expect("touched ⇒ pulsing");
                    for &c in fanouts.of(t) {
                        let consumer = netlist.gate(c);
                        if consumer.kind == CellKind::Dff && consumer.fanin[0] == t {
                            if let Some(bit) = model.mpu.bit_of(c) {
                                entry.paths_by_te[te].push(SeuPath {
                                    bit,
                                    delay_ps,
                                    duration_ps,
                                });
                                entry.bits.push(bit);
                            }
                        }
                    }
                }
                // One driver per D pin ⇒ at most one path per bit.
                entry.paths_by_te[te].sort_unstable_by_key(|p| p.bit);
                for &t in &touched {
                    pulse[t.index()] = None;
                }
                touched.clear();
                for &q in &enqueued {
                    queued[q.index()] = false;
                }
                enqueued.clear();
                queue.clear();
            }
        }
        for e in entries.values_mut() {
            e.bits.sort_unstable();
            e.bits.dedup();
            e.single_class = !e.bits.is_empty() && {
                let kind = prechar.registers.kind(e.bits[0]);
                e.bits.iter().all(|&b| prechar.registers.kind(b) == kind)
            };
        }
        Self {
            entries,
            clock_period_ps: cfg.clock_period_ps,
            window_lo: cfg.clock_period_ps - cfg.setup_ps,
            window_hi: cfg.clock_period_ps + cfg.hold_ps,
        }
    }

    /// The entry for one cell (`None` for cells outside the sample space).
    pub fn entry(&self, g: GateId) -> Option<&SetToSeuEntry> {
        self.entries.get(&g)
    }

    /// Number of mapped cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clock period of the transient model the timings were derived from
    /// (callers turn a sampled phase into `strike_time_ps` with it).
    pub fn clock_period_ps(&self) -> f64 {
        self.clock_period_ps
    }

    /// The latching window `[T − setup, T + hold]` paths are tested
    /// against, ps.
    pub fn latch_window_ps(&self) -> (f64, f64) {
        (self.window_lo, self.window_hi)
    }

    /// Union the SEU sets of the struck cells for injection cycle `te` at
    /// strike time `strike_time_ps` into `out` (sorted, deduped — the
    /// canonical bit-pattern order the conclusion memo keys on). Register
    /// strikes always contribute their bit; a combinational path
    /// contributes only when its pulse overlaps the latching window — the
    /// same `pulse_lo ≤ window_hi ∧ pulse_hi ≥ window_lo` test the
    /// transient sim applies at each D pin.
    pub fn seu_bits_into(
        &self,
        struck: &[GateId],
        te: u64,
        strike_time_ps: f64,
        out: &mut Vec<MpuBit>,
    ) {
        out.clear();
        for &g in struck {
            if let Some(e) = self.entries.get(&g) {
                if e.exact {
                    out.extend_from_slice(&e.bits);
                } else {
                    for p in e.paths_at(te) {
                        let lo = strike_time_ps + p.delay_ps;
                        if lo <= self.window_hi && lo + p.duration_ps >= self.window_lo {
                            out.push(p.bit);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Whether a sample's SET is **exactly representable** at RTL: a
    /// radius-0 strike on a mapped register cell (single register class,
    /// no pulse filtering between the strike and the latch). For such
    /// samples the level-0 verdict provably equals the gate-level verdict,
    /// so the coupled correction term is zero — the property the
    /// `property_based` suite pins.
    pub fn exactly_representable(&self, sample: &AttackSample) -> bool {
        sample.radius == 0.0
            && self
                .entries
                .get(&sample.center)
                .is_some_and(|e| e.exact && e.single_class)
    }
}

/// Lower clamp on the level-1 chunk share: the correction stream must keep
/// growing so the stopping rule always has a live `s₁²` to consult.
const MIN_LEVEL1_SHARE: f64 = 0.05;
/// Upper clamp on the level-1 chunk share (degenerating to gate-only would
/// make MLMC strictly worse than `--estimator single`).
const MAX_LEVEL1_SHARE: f64 = 0.95;

/// The two-level sample-allocation engine.
///
/// Holds the **fixed, deterministic** per-level cost model (never
/// wall-clock — timings would leak the schedule into the plan and break
/// bit-determinism) and turns pilot variances into an [`MlmcPlan`]. With
/// per-level variances `s₀², s₁²` and costs `c₀, c₁`, total cost at a
/// fixed estimator variance is minimized by `n_ℓ ∝ √(s_ℓ²/c_ℓ)` (the
/// standard MLMC allocation), so the level-1 share is
/// `√(s₁²/c₁) / (√(s₀²/c₀) + √(s₁²/c₁))`, clamped away from the
/// degenerate endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlmcEstimator {
    /// Relative cost of one level-0 run (conclusion machinery only).
    pub cost0: f64,
    /// Relative cost of one coupled level-1 run (full gate-level strike +
    /// transient propagation, plus the RTL twin).
    pub cost1: f64,
}

impl Default for MlmcEstimator {
    fn default() -> Self {
        Self {
            cost0: 1.0,
            cost1: 9.0,
        }
    }
}

impl MlmcEstimator {
    /// Chunks executed before the measured plan takes over, on the fixed
    /// alternating pattern [`Self::pilot_level`]. Starting at level 1
    /// guarantees `n₁ > 0` for any campaign length (a single-chunk
    /// campaign degenerates to the gate-marginal estimate).
    pub const PILOT_CHUNKS: usize = 4;

    /// The fixed pilot schedule: chunks 0, 2, … are level 1 (coupled),
    /// chunks 1, 3, … are level 0.
    pub fn pilot_level(chunk: usize) -> u8 {
        if chunk.is_multiple_of(2) {
            LEVEL_GATE
        } else {
            LEVEL_RTL
        }
    }

    /// The cost-optimal level-1 sample share for the given per-level
    /// variances, clamped to `[0.05, 0.95]` (both clamps also cover the
    /// all-masked pilot where both variances are zero).
    pub fn optimal_share1(&self, s0_sq: f64, s1_sq: f64) -> f64 {
        let d0 = (s0_sq.max(0.0) / self.cost0).sqrt();
        let d1 = (s1_sq.max(0.0) / self.cost1).sqrt();
        let share = if d0 + d1 > 0.0 { d1 / (d0 + d1) } else { 0.0 };
        share.clamp(MIN_LEVEL1_SHARE, MAX_LEVEL1_SHARE)
    }

    /// Freeze pilot variances into a deterministic chunk-level plan.
    pub fn plan(&self, s0_sq: f64, s1_sq: f64) -> MlmcPlan {
        MlmcPlan {
            ratio: self.optimal_share1(s0_sq, s1_sq),
        }
    }
}

/// A frozen chunk-level schedule: the pilot pattern followed by Bresenham
/// rounding of the level-1 share. A pure function of `ratio`, so the
/// schedule — and with it every merged statistic — survives checkpoint,
/// resume and any thread count bit-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlmcPlan {
    /// Target fraction of post-pilot chunks evaluated at level 1.
    pub ratio: f64,
}

impl MlmcPlan {
    /// The level of campaign chunk `chunk` under this plan.
    pub fn level_of_chunk(&self, chunk: usize) -> u8 {
        if chunk < MlmcEstimator::PILOT_CHUNKS {
            return MlmcEstimator::pilot_level(chunk);
        }
        // Bresenham: chunk j (post-pilot) is level 1 exactly when the
        // running rounded count ⌊(j+1)·ratio⌋ advances.
        let j = (chunk - MlmcEstimator::PILOT_CHUNKS) as f64;
        if ((j + 1.0) * self.ratio).floor() > (j * self.ratio).floor() {
            LEVEL_GATE
        } else {
            LEVEL_RTL
        }
    }
}

/// Per-level accounting of one MLMC campaign, carried on
/// [`crate::estimator::CampaignResult`]. Every field is — like the rest of
/// the result — a pure function of `(seed, n, strategy)`: bit-identical at
/// any thread count and under every kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct MlmcSummary {
    /// Level-0 (pure-RTL) runs folded.
    pub n0: u64,
    /// Coupled level-1 runs folded.
    pub n1: u64,
    /// Level-0 sample mean of `w·e_rtl`.
    pub mean0: f64,
    /// Level-0 sample variance.
    pub var0: f64,
    /// Level-1 sample mean of the signed correction `w·(e_gate − e_rtl)`.
    pub mean1_diff: f64,
    /// Level-1 sample variance of the correction.
    pub var1_diff: f64,
    /// Level-1 marginal mean of `w·e_gate` (the gate-only estimate over
    /// the coupled runs; carries the estimate when `n0 == 0`).
    pub mean1_gate: f64,
    /// Level-1 marginal mean of `w·e_rtl`.
    pub mean1_rtl: f64,
    /// The fixed cost-model constants the allocation used.
    pub cost0: f64,
    /// See [`MlmcSummary::cost0`].
    pub cost1: f64,
    /// The published post-pilot level-1 chunk share (`None` when the
    /// campaign ended inside the pilot).
    pub plan_ratio: Option<f64>,
    /// The level of every merged chunk, in chunk order — enough for a
    /// harness to re-derive exactly which run indices were coupled.
    pub chunk_levels: Vec<u8>,
}

impl MlmcSummary {
    /// The variance of the combined point estimate,
    /// `s₀²/n₀ + s₁²/n₁` (terms with no samples drop out).
    pub fn estimator_variance(&self) -> f64 {
        let mut v = 0.0;
        if self.n0 > 0 {
            v += self.var0 / self.n0 as f64;
        }
        if self.n1 > 0 {
            v += self.var1_diff / self.n1 as f64;
        }
        v
    }

    /// Realized level-1 share of all folded runs.
    pub fn share1(&self) -> f64 {
        let total = self.n0 + self.n1;
        if total == 0 {
            0.0
        } else {
            self.n1 as f64 / total as f64
        }
    }

    /// The cost-optimal level-1 share implied by the *final* measured
    /// variances (what the plan would be with hindsight).
    pub fn optimal_share1(&self) -> f64 {
        MlmcEstimator {
            cost0: self.cost0,
            cost1: self.cost1,
        }
        .optimal_share1(self.var0, self.var1_diff)
    }
}

/// Per-worker buffers for the MLMC chunk executors: the strike/SEU
/// scratch and RTL resume state of the level-0 path, plus a full
/// [`FlowScratch`] for the gate half of coupled runs. Like `FlowScratch`,
/// only valid against one `(model, evaluation, prechar)` triple.
#[derive(Debug, Default)]
pub struct MlmcScratch {
    level0: Level0Scratch,
    flow: FlowScratch,
    draws: Vec<RunDraw>,
}

/// The buffers and resume state of the level-0 path ([`level0_view`]).
#[derive(Debug, Default)]
struct Level0Scratch {
    struck: Vec<GateId>,
    struck2: Vec<GateId>,
    bits: Vec<MpuBit>,
    ff: RtlResume,
}

impl MlmcScratch {
    /// Combined resume counters of both paths.
    pub fn resume_stats(&self) -> ResumeStats {
        let mut s = self.level0.ff.stats();
        s.add(&self.flow.resume_stats());
        s
    }

    /// Drain latency observations from both the level-0 resume state and
    /// the nested gate-path scratch into one shard for the chunk partial.
    pub(crate) fn take_latency(&mut self) -> crate::telemetry::LatencyShard {
        let mut shard = crate::telemetry::LatencyShard {
            snapshot_restore: self.level0.ff.take_restore_latency(),
            ..crate::telemetry::LatencyShard::default()
        };
        shard.absorb(&self.flow.take_latency());
        shard
    }
}

/// The level-0 evaluation of one sample: map the spot to its multi-bit SEU
/// set and run only the downstream conclusion machinery — no gatesim, no
/// transient arithmetic. RNG discipline matches the gate path (hardening
/// draws happen after the strategy's draw, before the conclusion), so a
/// clone of the post-draw stream couples the two levels. The map's bits
/// come sorted as [`MpuBit`]s and the survival draws follow that order.
fn level0_view(
    runner: &FaultRunner<'_>,
    map: &SetToSeuMap,
    sample: &AttackSample,
    rng: &mut impl Rng,
    scratch: &mut Level0Scratch,
    memo: &mut ConclusionMemo,
) -> RunVerdict {
    let Level0Scratch {
        struck,
        struck2,
        bits,
        ff,
    } = scratch;
    let te = match sample.injection_cycle(runner.eval.target_cycle) {
        Some(te) if te < runner.eval.golden.cycles => te,
        _ => return RunVerdict::out_of_run(),
    };
    let spot = RadiationSpot {
        center: sample.center,
        radius: sample.radius,
    };
    spot.impacted_cells_into(&runner.model.placement, struck);
    if let Some(mf) = runner.multi_fault {
        // Same stream position as the gate path: one entropy word right
        // after the primary spot query, before the hardening draws —
        // coupled pairs therefore see the *same* second spot.
        let second = mf.second_spot(rng.next_u64());
        second.impacted_cells_into(&runner.model.placement, struck2);
        struck.extend_from_slice(struck2);
        struck.sort_unstable();
        struck.dedup();
    }
    let strike_time = sample.strike_time_ps(map.clock_period_ps());
    map.seu_bits_into(struck, te, strike_time, bits);
    if let Some(h) = runner.hardening {
        bits.retain(|&b| h.flip_survives(b, rng));
    }
    let regs = runner.bits_mask(bits);
    RunVerdict::concluded(te, regs, runner.conclude_with(te, regs, ff, memo))
}

/// Execute runs `start..end` at level 0. Shares the worker's conclusion
/// memo with every other chunk (the verdict is a pure function of
/// `(T_e, bits)`, whichever level asked first).
///
/// Level-0 chunks contribute **no** attribution, trace provenance or
/// `first_success`: those are gate-level notions, so only coupled chunks
/// feed them. The one exception is the `--replay` target: when `replay`
/// names a run in this chunk, its level-0 record is emitted so the replay
/// cross-check can compare like against like ([`replay_run_level0`]
/// re-derives it solo).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_chunk_level0(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    map: &SetToSeuMap,
    seed: u64,
    start: usize,
    end: usize,
    scratch: &mut MlmcScratch,
    memo: &mut ConclusionMemo,
    chunk: u32,
    ctr: &mut CounterScratch,
    replay: Option<u64>,
) -> ChunkPartial {
    ctr.begin_chunk();
    let mut p = ChunkPartial {
        level: LEVEL_RTL,
        ..ChunkPartial::default()
    };
    let MlmcScratch { level0, draws, .. } = scratch;
    strategy.draw_chunk(seed, start as u64..end as u64, draws);
    for (i, d) in (start as u64..).zip(draws.iter_mut()) {
        let RunDraw { sample, w, rng } = d;
        let (sample, w) = (*sample, *w);
        let view = level0_view(runner, map, &sample, rng, level0, memo);
        let record = view.record;
        if replay == Some(i) {
            p.provenance.push(ProvenanceRecord {
                run_index: i,
                t: sample.t,
                center: sample.center,
                radius: sample.radius,
                phase: sample.phase,
                te: view.injection_cycle,
                weight: w,
                class: record.class,
                success: record.success,
                analytic: record.analytic,
            });
        }
        match record.class {
            StrikeClass::Masked => p.class_counts.masked += 1,
            StrikeClass::MemoryOnly => p.class_counts.memory_only += 1,
            StrikeClass::Mixed => p.class_counts.mixed += 1,
        }
        if record.class != StrikeClass::Masked {
            if record.analytic {
                p.analytic_runs += 1;
            } else {
                p.rtl_runs += 1;
            }
        }
        ctr.record_run(
            &mut p.counters,
            view.injection_cycle,
            view.regs,
            memo.stamp(record.slot, chunk),
            record.analytic,
            0,
        );
        p.w_sum += w;
        p.w_sq_sum += w * w;
        let x = if record.success {
            p.successes += 1;
            w
        } else {
            0.0
        };
        p.stats.push(x);
    }
    p
}

/// Execute runs `start..end` as coupled level-1 pairs: the gate-accurate
/// flow and the level-0 twin on the *same* sample under twin post-draw RNG
/// streams, folding the signed difference `w·(e_gate − e_rtl)` into the
/// chunk's primary stream (and both marginals into the side stats).
///
/// The gate half consumes the original per-run stream — exactly the
/// stream `--estimator single` would consume — so its marginal is
/// bit-identical to a gate-only campaign over the same run indices.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_chunk_level1(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    map: &SetToSeuMap,
    seed: u64,
    start: usize,
    end: usize,
    scratch: &mut MlmcScratch,
    memo: &mut ConclusionMemo,
    chunk: u32,
    ctr: &mut CounterScratch,
    record_provenance: bool,
) -> ChunkPartial {
    ctr.begin_chunk();
    let mut p = ChunkPartial {
        level: LEVEL_GATE,
        ..ChunkPartial::default()
    };
    let MlmcScratch {
        level0,
        flow,
        draws,
    } = scratch;
    strategy.draw_chunk(seed, start as u64..end as u64, draws);
    for (i, d) in (start as u64..).zip(draws.iter_mut()) {
        let RunDraw { sample, w, rng } = d;
        let (sample, w) = (*sample, *w);
        // Twin streams: the gate half keeps the original (single-estimator)
        // stream, the RTL twin replays the identical post-draw state — so
        // both halves see the same hardening draws and the correction term
        // isolates the genuine cross-level model gap.
        let mut rng_rtl = rng.clone();
        let gate = runner.run_shared(&sample, rng, flow, Some(&mut *memo));
        // The twin's key stays out of the chunk's counters, which count
        // the gate half's keys only: only the gate half's slot is stamped.
        let first = memo.stamp(gate.record.slot, chunk);
        let rtl = level0_view(runner, map, &sample, &mut rng_rtl, level0, memo).record;
        match gate.record.class {
            StrikeClass::Masked => p.class_counts.masked += 1,
            StrikeClass::MemoryOnly => p.class_counts.memory_only += 1,
            StrikeClass::Mixed => p.class_counts.mixed += 1,
        }
        if gate.record.class != StrikeClass::Masked {
            if gate.record.analytic {
                p.analytic_runs += 1;
            } else {
                p.rtl_runs += 1;
            }
        }
        ctr.record_run(
            &mut p.counters,
            gate.injection_cycle,
            gate.regs,
            first,
            gate.record.analytic,
            gate.pulses_propagated,
        );
        p.kernel_counters.gates_visited += gate.gates_visited;
        p.w_sum += w;
        p.w_sq_sum += w * w;
        let g = if gate.record.success { w } else { 0.0 };
        let r = if rtl.success { w } else { 0.0 };
        if gate.record.success {
            p.successes += 1;
            if p.first_success.is_none() {
                p.first_success = Some(i);
            }
            p.attribution.add(gate.regs, w, runner.model.mpu.dff_bits());
        }
        p.stats.push(g - r);
        p.gate_stats.push(g);
        p.rtl_stats.push(r);
        if record_provenance {
            p.provenance.push(ProvenanceRecord {
                run_index: i,
                t: sample.t,
                center: sample.center,
                radius: sample.radius,
                phase: sample.phase,
                te: gate.injection_cycle,
                weight: w,
                class: gate.record.class,
                success: gate.record.success,
                analytic: gate.record.analytic,
            });
        }
    }
    p
}

/// One coupled evaluation's raw record, for the statistical acceptance
/// harness: both verdicts of campaign run `run_index` under the exact
/// per-run streams the engine uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedRecord {
    /// Campaign run index.
    pub run_index: u64,
    /// The importance weight `w` of the drawn sample.
    pub weight: f64,
    /// Gate-accurate verdict `e_gate`.
    pub gate_success: bool,
    /// Level-0 pure-RTL verdict `e_rtl`.
    pub rtl_success: bool,
}

impl PairedRecord {
    /// The weighted gate indicator `w·e_gate`.
    pub fn gate_term(&self) -> f64 {
        if self.gate_success {
            self.weight
        } else {
            0.0
        }
    }

    /// The weighted RTL indicator `w·e_rtl`.
    pub fn rtl_term(&self) -> f64 {
        if self.rtl_success {
            self.weight
        } else {
            0.0
        }
    }

    /// The signed correction sample `w·(e_gate − e_rtl)`.
    pub fn diff(&self) -> f64 {
        self.gate_term() - self.rtl_term()
    }
}

/// Re-derive campaign run `run_index` as a coupled pair, solo: the same
/// `SplitMix64::for_run(seed, run_index)` stream, twin post-draw clones,
/// both levels. Both verdicts are pure functions of `(seed, run_index,
/// strategy)`, so the record must match what a level-1 chunk folded.
pub fn coupled_run(
    runner: &FaultRunner<'_>,
    map: &SetToSeuMap,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    run_index: u64,
) -> PairedRecord {
    coupled_run_with(
        runner,
        map,
        strategy,
        seed,
        run_index,
        &mut MlmcScratch::default(),
        &mut ConclusionMemo::default(),
    )
}

/// [`coupled_run`] with caller-owned scratch and memo, for harnesses that
/// re-walk thousands of runs (the memo is verdict-invariant, so reuse
/// never changes a record).
pub fn coupled_run_with(
    runner: &FaultRunner<'_>,
    map: &SetToSeuMap,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    run_index: u64,
    scratch: &mut MlmcScratch,
    memo: &mut ConclusionMemo,
) -> PairedRecord {
    let RunDraw {
        sample,
        w: weight,
        mut rng,
    } = draw_run(strategy, seed, run_index);
    let mut rng_rtl = rng.clone();
    let MlmcScratch { level0, flow, .. } = scratch;
    let gate = runner.run_shared(&sample, &mut rng, flow, Some(&mut *memo));
    let rtl = level0_view(runner, map, &sample, &mut rng_rtl, level0, memo);
    let (gate_success, rtl_success) = (gate.record.success, rtl.record.success);
    PairedRecord {
        run_index,
        weight,
        gate_success,
        rtl_success,
    }
}

/// Re-derive campaign run `run_index` at **level 0** solo: the same
/// `SplitMix64::for_run(seed, run_index)` stream, the SEU-map conclusion
/// path instead of the gate kernel. Under `--estimator mlmc` this is what
/// a level-0 chunk recorded for the run, so `--replay` must compare
/// against this — the gate flow's verdict legitimately differs wherever
/// the level-1 correction term is non-zero.
pub fn replay_run_level0(
    runner: &FaultRunner<'_>,
    map: &SetToSeuMap,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    run_index: u64,
) -> ProvenanceRecord {
    let RunDraw {
        sample,
        w: weight,
        mut rng,
    } = draw_run(strategy, seed, run_index);
    let view = level0_view(
        runner,
        map,
        &sample,
        &mut rng,
        &mut Level0Scratch::default(),
        &mut ConclusionMemo::default(),
    );
    ProvenanceRecord {
        run_index,
        t: sample.t,
        center: sample.center,
        radius: sample.radius,
        phase: sample.phase,
        te: view.injection_cycle,
        weight,
        class: view.record.class,
        success: view.record.success,
        analytic: view.record.analytic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Evaluation;
    use crate::rng::SplitMix64;
    use crate::sampling::{baseline_distribution, ExperimentConfig, ImportanceSampling};
    use xlmc_soc::workloads;

    #[test]
    fn pilot_schedule_alternates_and_starts_coupled() {
        assert_eq!(MlmcEstimator::pilot_level(0), LEVEL_GATE);
        assert_eq!(MlmcEstimator::pilot_level(1), LEVEL_RTL);
        assert_eq!(MlmcEstimator::pilot_level(2), LEVEL_GATE);
        assert_eq!(MlmcEstimator::pilot_level(3), LEVEL_RTL);
    }

    #[test]
    fn optimal_share_matches_closed_form_and_clamps() {
        let est = MlmcEstimator::default();
        // Equal variances: share1 = sqrt(1/c1) / (1 + sqrt(1/c1)) with
        // c0 = 1 — i.e. 1/(1 + sqrt(c1)).
        let share = est.optimal_share1(0.01, 0.01);
        let expect = 1.0 / (1.0 + est.cost1.sqrt());
        assert!((share - expect).abs() < 1e-12, "{share} vs {expect}");
        // A cheap level with all the variance pushes toward level 0.
        assert!(est.optimal_share1(1.0, 1e-8) < 0.06);
        assert_eq!(est.optimal_share1(1.0, 0.0), MIN_LEVEL1_SHARE);
        // All the variance in the correction pushes toward level 1.
        assert!(est.optimal_share1(1e-8, 1.0) > 0.9);
        assert_eq!(est.optimal_share1(0.0, 1.0), MAX_LEVEL1_SHARE);
        // Degenerate all-masked pilot: both clamps meet at the minimum.
        assert_eq!(est.optimal_share1(0.0, 0.0), MIN_LEVEL1_SHARE);
    }

    #[test]
    fn plan_realizes_the_requested_share() {
        for ratio in [0.05, 0.25, 1.0 / 3.0, 0.5, 0.95] {
            let plan = MlmcPlan { ratio };
            let post = 4000usize;
            let ones: usize = (MlmcEstimator::PILOT_CHUNKS..MlmcEstimator::PILOT_CHUNKS + post)
                .map(|c| plan.level_of_chunk(c) as usize)
                .sum();
            let realized = ones as f64 / post as f64;
            assert!(
                (realized - ratio).abs() < 1e-3,
                "ratio {ratio}: realized {realized}"
            );
        }
        // The schedule is a pure function of the ratio bits.
        let a = MlmcPlan { ratio: 0.37 };
        let b = MlmcPlan { ratio: 0.37 };
        for c in 0..256 {
            assert_eq!(a.level_of_chunk(c), b.level_of_chunk(c));
        }
    }

    #[test]
    fn summary_variance_combines_per_level_terms() {
        let s = MlmcSummary {
            n0: 1000,
            n1: 100,
            mean0: 0.02,
            var0: 0.01,
            mean1_diff: 0.001,
            var1_diff: 0.0004,
            mean1_gate: 0.021,
            mean1_rtl: 0.02,
            cost0: 1.0,
            cost1: 9.0,
            plan_ratio: Some(0.2),
            chunk_levels: vec![1, 0, 1, 0, 0],
        };
        let expect = 0.01 / 1000.0 + 0.0004 / 100.0;
        assert!((s.estimator_variance() - expect).abs() < 1e-15);
        assert!((s.share1() - 100.0 / 1100.0).abs() < 1e-12);
        assert!(s.optimal_share1() > 0.0 && s.optimal_share1() < 1.0);
        // No level-0 samples: only the correction term contributes.
        let degenerate = MlmcSummary { n0: 0, ..s };
        assert!((degenerate.estimator_variance() - 0.0004 / 100.0).abs() < 1e-15);
    }

    fn fixture() -> (
        SystemModel,
        Evaluation,
        Precharacterization,
        ExperimentConfig,
    ) {
        let model = SystemModel::with_defaults().unwrap();
        let eval = Evaluation::new(workloads::illegal_write()).unwrap();
        let cfg = ExperimentConfig {
            t_max: 8,
            ..Default::default()
        };
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        (model, eval, prechar, cfg)
    }

    #[test]
    fn map_covers_the_sample_space_and_marks_registers_exact() {
        let (model, eval, prechar, _cfg) = fixture();
        let map = SetToSeuMap::build(&model, &eval, &prechar);
        assert_eq!(map.len(), prechar.space.all_cells().len());
        // A register cell maps to exactly its own bit and is exact.
        let dff = model.mpu.dff(MpuBit::Violation);
        let e = map.entry(dff).expect("violation DFF is in the space");
        assert!(e.exact);
        assert!(e.paths_at(0).is_empty());
        assert_eq!(e.bits, vec![MpuBit::Violation]);
        // The hold mux in front of a register reaches that register with a
        // zero-delay, full-width path (it drives the D pin directly, so no
        // logical masking can intervene at any cycle).
        let netlist = model.mpu.netlist();
        let unused = model.mpu.dff(MpuBit::Base(2, 9));
        let hold_mux = netlist.gate(unused).fanin[0];
        if let Some(e) = map.entry(hold_mux) {
            assert!(!e.exact);
            assert!(e.bits.contains(&MpuBit::Base(2, 9)), "{:?}", e.bits);
            let te = eval.target_cycle - 1;
            let p = e
                .paths_at(te)
                .iter()
                .find(|p| p.bit == MpuBit::Base(2, 9))
                .expect("direct D-pin path");
            assert_eq!(p.delay_ps, 0.0);
            assert!(p.duration_ps > 0.0);
        }
    }

    #[test]
    fn seu_union_is_sorted_and_deduped() {
        let (model, eval, prechar, _cfg) = fixture();
        let map = SetToSeuMap::build(&model, &eval, &prechar);
        let cells = prechar.space.all_cells();
        let struck: Vec<GateId> = cells.iter().take(20).copied().collect();
        let (window_lo, _) = map.latch_window_ps();
        let mut out = Vec::new();
        map.seu_bits_into(&struck, eval.target_cycle - 1, window_lo, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(out, sorted);
    }

    #[test]
    fn latching_window_filters_paths_by_strike_time() {
        let (model, eval, prechar, _cfg) = fixture();
        let map = SetToSeuMap::build(&model, &eval, &prechar);
        let netlist = model.mpu.netlist();
        let unused = model.mpu.dff(MpuBit::Base(2, 9));
        let hold_mux = netlist.gate(unused).fanin[0];
        let (window_lo, window_hi) = map.latch_window_ps();
        let te = eval.target_cycle - 1;
        let e = map.entry(hold_mux).expect("hold mux is strikeable");
        let p = e
            .paths_at(te)
            .iter()
            .find(|p| p.bit == MpuBit::Base(2, 9))
            .unwrap();
        let mut out = Vec::new();
        // A strike whose pulse dies long before the capture window latches
        // nothing from this cell; one landing inside the window does.
        let early = window_lo - p.delay_ps - p.duration_ps - 1.0;
        map.seu_bits_into(&[hold_mux], te, early, &mut out);
        assert!(!out.contains(&MpuBit::Base(2, 9)), "{out:?}");
        let inside = (window_lo + window_hi) / 2.0 - p.delay_ps;
        map.seu_bits_into(&[hold_mux], te, inside, &mut out);
        assert!(out.contains(&MpuBit::Base(2, 9)), "{out:?}");
        // A direct register strike ignores timing entirely.
        map.seu_bits_into(&[unused], te, early, &mut out);
        assert_eq!(out, vec![MpuBit::Base(2, 9)]);
    }

    #[test]
    fn exactly_representable_samples_agree_across_levels() {
        // The provable-zero-correction case: a radius-0 strike on the
        // violation register at t = 1 succeeds identically at both levels.
        let (model, eval, prechar, cfg) = fixture();
        let map = SetToSeuMap::build(&model, &eval, &prechar);
        let runner = FaultRunner {
            model: &model,
            eval: &eval,
            prechar: &prechar,
            hardening: None,
            multi_fault: None,
        };
        let fd = baseline_distribution(&model, &cfg);
        let strategy = ImportanceSampling::new(
            fd,
            &model,
            &prechar,
            cfg.alpha,
            cfg.beta,
            cfg.radius_options.clone(),
        );
        let mut scratch = MlmcScratch::default();
        let mut memo = ConclusionMemo::default();
        let mut checked = 0usize;
        for i in 0..600u64 {
            let mut rng = SplitMix64::for_run(77, i);
            let sample = strategy.draw(&mut rng);
            if !map.exactly_representable(&sample) {
                continue;
            }
            let rec = coupled_run_with(&runner, &map, &strategy, 77, i, &mut scratch, &mut memo);
            assert_eq!(
                rec.gate_success, rec.rtl_success,
                "run {i}: sample {sample:?}"
            );
            checked += 1;
        }
        assert!(
            checked > 10,
            "want exact samples in 600 draws, got {checked}"
        );
    }

    #[test]
    fn coupled_run_is_deterministic_and_matches_scratch_reuse() {
        let (model, eval, prechar, cfg) = fixture();
        let map = SetToSeuMap::build(&model, &eval, &prechar);
        let runner = FaultRunner {
            model: &model,
            eval: &eval,
            prechar: &prechar,
            hardening: None,
            multi_fault: None,
        };
        let fd = baseline_distribution(&model, &cfg);
        let strategy = ImportanceSampling::new(
            fd,
            &model,
            &prechar,
            cfg.alpha,
            cfg.beta,
            cfg.radius_options.clone(),
        );
        let mut scratch = MlmcScratch::default();
        let mut memo = ConclusionMemo::default();
        for i in [0u64, 3, 17, 400] {
            let fresh = coupled_run(&runner, &map, &strategy, 9, i);
            let reused = coupled_run_with(&runner, &map, &strategy, 9, i, &mut scratch, &mut memo);
            assert_eq!(fresh, reused, "run {i}");
        }
    }

    /// A coupled chunk counts its gate half's conclusion keys only: its
    /// counters equal the gate-only scalar chunk's, whatever keys the RTL
    /// twin probes in between on the same memo. Uniform sampling hits
    /// combinational cells, whose SEU-map sets differ from the gate
    /// strike's, so the twin's keys are not the gate half's.
    #[test]
    fn coupled_chunk_counters_match_the_gate_only_chunk() {
        let (model, eval, prechar, cfg) = fixture();
        let map = SetToSeuMap::build(&model, &eval, &prechar);
        let fd = baseline_distribution(&model, &cfg);
        let glitch = xlmc_fault::DoubleGlitch::new(fd.spatial.clone(), fd.radius.clone());
        let strategy = crate::sampling::RandomSampling::new(fd);
        for multi_fault in [None, Some(&glitch)] {
            let runner = FaultRunner {
                model: &model,
                eval: &eval,
                prechar: &prechar,
                hardening: None,
                multi_fault,
            };
            let mut scratch = MlmcScratch::default();
            let mut memo = ConclusionMemo::default();
            let mut ctr = CounterScratch::default();
            let mut flow = FlowScratch::default();
            for (chunk, start) in [0usize, 512, 1024].into_iter().enumerate() {
                let end = start + 512;
                let coupled = run_chunk_level1(
                    &runner,
                    &strategy,
                    &map,
                    5,
                    start,
                    end,
                    &mut scratch,
                    &mut memo,
                    chunk as u32,
                    &mut ctr,
                    false,
                );
                let gate = crate::estimator::scalar_chunk_for_tests(
                    &runner, &strategy, 5, start, end, &mut flow,
                );
                assert_eq!(
                    coupled.counters,
                    gate.counters,
                    "chunk {chunk}, double glitch {}",
                    multi_fault.is_some()
                );
            }
        }
    }
}
