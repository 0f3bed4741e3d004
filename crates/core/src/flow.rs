//! The cross-level fault-propagation simulation (paper §5, Figure 5).
//!
//! One attack run executes the full flow:
//!
//! 1. locate the injection cycle `T_e = T_t − t` in the golden run,
//! 2. **switch to gate level** for the injection cycle: reconstruct the
//!    MPU netlist's state and stimulus from the golden traces, strike the
//!    radiated cells, and propagate the transients to the flip-flops,
//! 3. translate the latched errors through the cross-level register map,
//! 4. classify: fully masked → fail; memory-type only → **analytical
//!    evaluation**; otherwise → **restore the nearest golden checkpoint**,
//!    re-run RTL to the injection cycle, write the errors back into the
//!    architectural state, and resume RTL simulation to completion,
//! 5. the attack-goal predicate on the final state is the indicator `e`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::analytic::{self, AnalyticVerdict};
use crate::harden::HardenedVariant;
use crate::lifetime::RegisterKind;
use crate::model::{Evaluation, SystemModel};
use crate::precharacterize::Precharacterization;
use crate::resume::{ConclusionMemo, ResumeStats, RtlResume};
use rand::Rng;
use xlmc_fault::{AttackSample, DoubleGlitch, RadiationSpot};
use xlmc_gatesim::{CycleValues, StrikeOutcome, TransientScratch};
use xlmc_netlist::{GateId, GateProgram};
use xlmc_soc::MpuBit;

/// The classification of one strike by where its errors landed
/// (paper Figure 10(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrikeClass {
    /// No register captured an error.
    Masked,
    /// Errors only in memory-type registers.
    MemoryOnly,
    /// At least one computation-type register in error.
    Mixed,
}

/// The result of one attack run.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// The success indicator `e(t, p)`.
    pub success: bool,
    /// Where the errors landed.
    pub class: StrikeClass,
    /// The faulty register bits at the end of the injection cycle (after
    /// hardening filtered absorbed flips).
    pub faulty_bits: Vec<MpuBit>,
    /// Whether the outcome came from the analytical evaluation (`false`
    /// means RTL resume — or a masked strike needing neither).
    pub analytic: bool,
    /// The injection cycle `T_e`, when inside the run.
    pub injection_cycle: Option<u64>,
    /// Combinational gates that carried a propagating pulse (0 for glitch
    /// attacks and out-of-run samples).
    pub pulses_propagated: usize,
    /// Gates popped from the propagation worklist (0 when no strike ran).
    pub gates_visited: usize,
}

impl AttackOutcome {
    fn failed(class: StrikeClass, injection_cycle: Option<u64>) -> Self {
        Self {
            success: false,
            class,
            faulty_bits: Vec::new(),
            analytic: false,
            injection_cycle,
            pulses_propagated: 0,
            gates_visited: 0,
        }
    }
}

/// A borrowed view of one attack run's outcome, returned by
/// [`FaultRunner::run_with`].
///
/// Identical to [`AttackOutcome`] except that the faulty-bit list lives in
/// the [`FlowScratch`], so the hot path hands the caller a slice instead of
/// a fresh `Vec`.
#[derive(Debug, Clone, Copy)]
pub struct RunView<'s> {
    /// The success indicator `e(t, p)`.
    pub success: bool,
    /// Where the errors landed.
    pub class: StrikeClass,
    /// The faulty register bits (borrowed from the scratch; valid until the
    /// next run on the same scratch).
    pub faulty_bits: &'s [MpuBit],
    /// Whether the outcome came from the analytical evaluation.
    pub analytic: bool,
    /// The injection cycle `T_e`, when inside the run.
    pub injection_cycle: Option<u64>,
    /// Combinational gates that carried a propagating pulse in the strike.
    pub pulses_propagated: usize,
    /// Gates popped from the propagation worklist.
    pub gates_visited: usize,
}

impl RunView<'_> {
    /// Copy into an owned [`AttackOutcome`].
    pub fn to_outcome(&self) -> AttackOutcome {
        AttackOutcome {
            success: self.success,
            class: self.class,
            faulty_bits: self.faulty_bits.to_vec(),
            analytic: self.analytic,
            injection_cycle: self.injection_cycle,
            pulses_propagated: self.pulses_propagated,
            gates_visited: self.gates_visited,
        }
    }
}

/// The registers in error after a strike, packed by DFF index: the
/// position in [`xlmc_netlist::Netlist::dffs`], which ascends with
/// [`GateId`]. Member `i` sets bit `i % 64` of word `i / 64`, so walking the
/// members visits the registers in the order of the sorted `Vec<GateId>`
/// the scalar kernel reports, and two sets compare and hash as three words.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DffMask([u64; 3]);

impl DffMask {
    /// How many DFFs a mask holds (the MPU has fewer).
    pub(crate) const CAPACITY: usize = 3 * 64;

    /// The empty set.
    pub(crate) const EMPTY: Self = Self([0; 3]);

    /// The set of a packed register mask; words past the capacity must be
    /// zero.
    pub(crate) fn from_words(words: impl IntoIterator<Item = u64>) -> Self {
        let mut mask = Self::default();
        for (k, w) in words.into_iter().enumerate() {
            match mask.0.get_mut(k) {
                Some(slot) => *slot = w,
                None => assert_eq!(w, 0, "DFF index past DffMask::CAPACITY"),
            }
        }
        mask
    }

    /// Add DFF `i` to the set.
    pub(crate) fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Whether the set holds DFF `i`.
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// Whether the set is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.0 == [0; 3]
    }

    /// The members, ascending.
    pub(crate) fn iter(self) -> impl Iterator<Item = usize> {
        let (mut words, mut k) = (self.0, 0);
        std::iter::from_fn(move || {
            while k < words.len() {
                if words[k] != 0 {
                    let i = words[k].trailing_zeros() as usize;
                    words[k] &= words[k] - 1;
                    return Some(k * 64 + i);
                }
                k += 1;
            }
            None
        })
    }

    /// Keep the members `keep` accepts, asking in ascending order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for i in self.iter() {
            if !keep(i) {
                self.0[i / 64] &= !(1 << (i % 64));
            }
        }
    }
}

impl FromIterator<usize> for DffMask {
    fn from_iter<I: IntoIterator<Item = usize>>(indices: I) -> Self {
        let mut mask = Self::default();
        for i in indices {
            mask.insert(i);
        }
        mask
    }
}

impl Hash for DffMask {
    /// Three `write_u64` calls, so word hashers see whole words.
    fn hash<H: Hasher>(&self, state: &mut H) {
        for w in self.0 {
            state.write_u64(w);
        }
    }
}

/// One run's outcome on the campaign path: its [`RunRecord`] plus what
/// only the strike knows, with the post-hardening registers as a packed
/// set. Bits are named only where a caller asks for them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunVerdict {
    pub(crate) record: RunRecord,
    pub(crate) regs: DffMask,
    pub(crate) injection_cycle: Option<u64>,
    pub(crate) pulses_propagated: usize,
    pub(crate) gates_visited: usize,
}

impl RunVerdict {
    /// The verdict of a sample that injects outside the golden run.
    pub(crate) fn out_of_run() -> Self {
        Self {
            record: RunRecord::MASKED,
            regs: DffMask::EMPTY,
            injection_cycle: None,
            pulses_propagated: 0,
            gates_visited: 0,
        }
    }

    /// The verdict of `regs` concluded as `record` at cycle `te`.
    pub(crate) fn concluded(te: u64, regs: DffMask, record: RunRecord) -> Self {
        Self {
            record,
            regs,
            injection_cycle: Some(te),
            pulses_propagated: 0,
            gates_visited: 0,
        }
    }
}

/// The conclusion-memo slot of a run whose hardening left no register in
/// error: masked, with no probe.
pub(crate) const MASKED_SLOT: u32 = u32::MAX;

/// One run's concluded outcome, as a chunk keeps it for the run-order
/// fold: the verdict's flags and a handle to the [`ConclusionMemo`] slot
/// of its `(T_e, post-hardening registers)` key, which holds the registers
/// for the few runs that read them (a success's attribution). Eight bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunRecord {
    /// The memo slot of the run's key, [`MASKED_SLOT`] for none.
    pub(crate) slot: u32,
    pub(crate) class: StrikeClass,
    pub(crate) success: bool,
    pub(crate) analytic: bool,
}

const _: () = assert!(std::mem::size_of::<RunRecord>() == 8);

impl RunRecord {
    /// The record of a run with no register in error.
    pub(crate) const MASKED: Self = Self {
        slot: MASKED_SLOT,
        class: StrikeClass::Masked,
        success: false,
        analytic: false,
    };

    /// The record's verdict in one byte: its class, success and analytic
    /// flags.
    pub(crate) fn verdict_bits(&self) -> u8 {
        self.class as u8 | u8::from(self.success) << 2 | u8::from(self.analytic) << 3
    }

    /// The record of memo slot `slot` with verdict byte `bits`
    /// ([`verdict_bits`](Self::verdict_bits)).
    pub(crate) fn from_verdict_bits(slot: u32, bits: u8) -> Self {
        Self {
            slot,
            class: match bits & 3 {
                0 => StrikeClass::Masked,
                1 => StrikeClass::MemoryOnly,
                _ => StrikeClass::Mixed,
            },
            success: bits & 4 != 0,
            analytic: bits & 8 != 0,
        }
    }

    /// The record of a run concluded as `verdict` at memo slot `slot`.
    pub(crate) fn concluded(slot: u32, verdict: Concluded) -> Self {
        Self {
            slot,
            class: verdict.class,
            success: verdict.success,
            analytic: verdict.analytic,
        }
    }
}

/// The memoized downstream verdict of one `(T_e, post-hardening bits)`
/// pair. Everything after the hardening filter — classification, analytic
/// evaluation, RTL resume — is a pure function of the injection cycle and
/// the surviving error bits, so repeated error patterns (common under
/// importance sampling, which concentrates strikes on the same cells) skip
/// the expensive resume entirely.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Concluded {
    pub(crate) success: bool,
    pub(crate) class: StrikeClass,
    pub(crate) analytic: bool,
}

/// Reusable per-worker buffers for [`FaultRunner::run_with`].
///
/// Holds every transient allocation of the flow, plus state that is valid
/// **only against one `(model, evaluation, prechar)` triple**: the netlist
/// cycle values keyed by injection cycle (the golden run makes them a pure
/// function of `T_e`), the RTL resume state (the exact-cycle snapshot
/// cache and the resident resume system — see [`RtlResume`]), and a
/// fallback conclusion memo used when the caller does not supply its own.
/// Never move one scratch between runners with different models,
/// evaluations or pre-characterizations; within one campaign the engine
/// keeps a scratch per worker.
#[derive(Debug, Default)]
pub struct FlowScratch {
    cycle_cache: HashMap<u64, CycleValues>,
    state_buf: Vec<bool>,
    input_buf: Vec<bool>,
    struck: Vec<GateId>,
    struck2: Vec<GateId>,
    transient: TransientScratch,
    strike_out: StrikeOutcome,
    faulty_regs: Vec<GateId>,
    faulty_bits: Vec<MpuBit>,
    ff: RtlResume,
    local_memo: ConclusionMemo,
}

impl FlowScratch {
    /// The resume counters accumulated by runs on this scratch.
    pub fn resume_stats(&self) -> ResumeStats {
        self.ff.stats()
    }

    /// Drain latency observations (snapshot-restore timings) accumulated
    /// since the last call into a shard for the chunk partial.
    pub(crate) fn take_latency(&mut self) -> crate::metrics::LatencyShard {
        crate::metrics::LatencyShard {
            snapshot_restore: self.ff.take_restore_latency(),
            ..crate::metrics::LatencyShard::default()
        }
    }
}

/// Executes attack runs against one evaluation setup.
#[derive(Debug, Clone, Copy)]
pub struct FaultRunner<'a> {
    /// The gate-level system model.
    pub model: &'a SystemModel,
    /// The workload under attack with its golden run.
    pub eval: &'a Evaluation,
    /// The pre-characterization (register classification).
    pub prechar: &'a Precharacterization,
    /// Optional hardening countermeasure.
    pub hardening: Option<&'a HardenedVariant>,
    /// Optional correlated multi-fault (double-glitch) mode: a second spot
    /// per run, time-correlated with the primary sample, drawn from one
    /// word of entropy split off the per-run stream.
    pub multi_fault: Option<&'a DoubleGlitch>,
}

impl FaultRunner<'_> {
    /// The gate-level injection half of the flow: the register bits in
    /// error at the end of the injection cycle (before hardening), or
    /// `None` when the sample injects outside the golden run.
    ///
    /// Exposed for the error-pattern characterization experiments (paper
    /// Figure 7), which need the latched patterns without the downstream
    /// outcome evaluation.
    pub fn injected_bits(&self, sample: &AttackSample) -> Option<Vec<MpuBit>> {
        let golden = &self.eval.golden;
        let te = sample.injection_cycle(self.eval.target_cycle)?;
        if te >= golden.cycles {
            return None;
        }
        let netlist = self.model.mpu.netlist();
        let state = self.model.mpu.state_vector(&golden.mpu_states[te as usize]);
        let stim = &golden.stimulus[te as usize];
        let inputs = self.model.mpu.input_values(stim.request, stim.cfg_write);
        let values = self.model.cycle_sim.eval(netlist, &state, &inputs);
        let spot = RadiationSpot {
            center: sample.center,
            radius: sample.radius,
        };
        let struck = spot.impacted_cells(&self.model.placement);
        // The particle-hit moment within the cycle is a technique parameter
        // of the sample, so `e(t, p)` stays deterministic.
        let strike_time = sample.strike_time_ps(self.model.transient.config().clock_period_ps);
        let strike = self
            .model
            .transient
            .strike(netlist, &values, &struck, strike_time);
        Some(
            strike
                .faulty_registers()
                .iter()
                .filter_map(|&d| self.model.mpu.bit_of(d))
                .collect(),
        )
    }

    /// Execute one attack with the given sample.
    pub fn run(&self, sample: &AttackSample, rng: &mut impl Rng) -> AttackOutcome {
        let mut scratch = FlowScratch::default();
        self.run_with(sample, rng, &mut scratch).to_outcome()
    }

    /// [`FaultRunner::run`] with caller-owned buffers — the campaign hot
    /// path. After the scratch is warm (every distinct injection cycle seen
    /// once), a masked strike allocates nothing.
    pub fn run_with<'s>(
        &self,
        sample: &AttackSample,
        rng: &mut impl Rng,
        scratch: &'s mut FlowScratch,
    ) -> RunView<'s> {
        let v = self.run_shared(sample, rng, scratch, None);
        self.bits_into(v.regs, &mut scratch.faulty_bits);
        RunView {
            success: v.record.success,
            class: v.record.class,
            faulty_bits: &scratch.faulty_bits,
            analytic: v.record.analytic,
            injection_cycle: v.injection_cycle,
            pulses_propagated: v.pulses_propagated,
            gates_visited: v.gates_visited,
        }
    }

    /// [`FaultRunner::run_with`] against a worker's conclusion memo (falls
    /// back to the scratch-local one when `memo` is `None`). The verdict
    /// is a pure function of `(T_e, post-hardening bits)` — the hardening
    /// filter consumes RNG before the key is formed — so which memo serves
    /// a run never changes a result bit.
    pub(crate) fn run_shared(
        &self,
        sample: &AttackSample,
        rng: &mut impl Rng,
        scratch: &mut FlowScratch,
        memo: Option<&mut ConclusionMemo>,
    ) -> RunVerdict {
        let golden = &self.eval.golden;
        let te = match sample.injection_cycle(self.eval.target_cycle) {
            Some(te) if te < golden.cycles => te,
            _ => return RunVerdict::out_of_run(),
        };
        let FlowScratch {
            cycle_cache,
            state_buf,
            input_buf,
            struck,
            struck2,
            transient,
            strike_out,
            faulty_regs,
            faulty_bits: _,
            ff,
            local_memo,
        } = scratch;
        let memo = memo.unwrap_or(local_memo);

        let netlist = self.model.mpu.netlist();
        // The injection-cycle values are a pure function of `te` on the
        // golden run; campaigns revisit the same few cycles (t ≤ t_max), so
        // the memo turns the per-run combinational sweep into a lookup.
        let values: &CycleValues = match cycle_cache.entry(te) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.model
                    .mpu
                    .state_vector_into(&golden.mpu_states[te as usize], state_buf);
                let stim = &golden.stimulus[te as usize];
                self.model
                    .mpu
                    .input_values_into(stim.request, stim.cfg_write, input_buf);
                let mut cv = CycleValues::default();
                self.model
                    .cycle_sim
                    .eval_into(netlist, state_buf, input_buf, &mut cv);
                e.insert(cv)
            }
        };

        let spot = RadiationSpot {
            center: sample.center,
            radius: sample.radius,
        };
        spot.impacted_cells_into(&self.model.placement, struck);
        if let Some(mf) = self.multi_fault {
            // One entropy word per in-run sample, drawn before the hardening
            // filter — the same stream position in every kernel.
            let second = mf.second_spot(rng.next_u64());
            second.impacted_cells_into(&self.model.placement, struck2);
            struck.extend_from_slice(struck2);
            struck.sort_unstable();
            struck.dedup();
        }
        let strike_time = sample.strike_time_ps(self.model.transient.config().clock_period_ps);
        self.model.transient.strike_with(
            netlist,
            values,
            struck,
            strike_time,
            transient,
            strike_out,
        );
        strike_out.faulty_registers_into(faulty_regs);
        let mut regs = self.dff_mask(faulty_regs);
        self.harden(&mut regs, rng);
        let record = self.conclude_with(te, regs, ff, memo);
        RunVerdict {
            pulses_propagated: strike_out.pulses_propagated,
            gates_visited: strike_out.gates_visited,
            ..RunVerdict::concluded(te, regs, record)
        }
    }

    /// Execute one clock-glitch attack: shorten the capture period of the
    /// injection cycle to `glitch_period_ps` so long combinational paths
    /// latch stale values (the paper's second technique family; the
    /// parameter vector `p` here is the glitch depth).
    pub fn run_glitch(&self, t: i64, glitch_period_ps: f64, rng: &mut impl Rng) -> AttackOutcome {
        let golden = &self.eval.golden;
        let te = self.eval.target_cycle as i64 - t;
        if te < 1 || te as u64 >= golden.cycles {
            return AttackOutcome::failed(StrikeClass::Masked, None);
        }
        let te = te as u64;
        let netlist = self.model.mpu.netlist();
        let eval_cycle = |c: u64| {
            let state = self.model.mpu.state_vector(&golden.mpu_states[c as usize]);
            let stim = &golden.stimulus[c as usize];
            let inputs = self.model.mpu.input_values(stim.request, stim.cfg_write);
            self.model.cycle_sim.eval(netlist, &state, &inputs)
        };
        let prev = eval_cycle(te - 1);
        let cur = eval_cycle(te);
        let flipped = self
            .model
            .glitch
            .glitch(netlist, &prev, &cur, glitch_period_ps);
        let mut regs = self.dff_mask(&flipped);
        self.harden(&mut regs, rng);
        let mut ff = RtlResume::default();
        let c = self.conclude_with(te, regs, &mut ff, &mut ConclusionMemo::default());
        let mut faulty_bits = Vec::new();
        self.bits_into(regs, &mut faulty_bits);
        AttackOutcome {
            success: c.success,
            class: c.class,
            faulty_bits,
            analytic: c.analytic,
            injection_cycle: Some(te),
            pulses_propagated: 0,
            gates_visited: 0,
        }
    }

    /// The packed set of a list of MPU flip-flops.
    pub(crate) fn dff_mask(&self, dffs: &[GateId]) -> DffMask {
        let program = self.program();
        dffs.iter()
            .map(|&d| {
                program
                    .dff_index(d.index())
                    .expect("a faulty register is a DFF")
            })
            .collect()
    }

    /// The packed set of a list of architectural bits.
    pub(crate) fn bits_mask(&self, bits: &[MpuBit]) -> DffMask {
        let program = self.program();
        bits.iter()
            .map(|&b| {
                program
                    .dff_index(self.model.mpu.dff(b).index())
                    .expect("every bit has a DFF")
            })
            .collect()
    }

    fn program(&self) -> &GateProgram {
        self.model
            .mpu
            .netlist()
            .program()
            .expect("model netlist was levelized at construction")
    }

    /// The architectural bits of a packed set, in ascending DFF order
    /// (`out` is cleared first).
    pub(crate) fn bits_into(&self, regs: DffMask, out: &mut Vec<MpuBit>) {
        let dff_bits = self.model.mpu.dff_bits();
        out.clear();
        out.extend(regs.iter().map(|i| dff_bits[i]));
    }

    /// The hardening filter of the strike paths: one `flip_survives` per
    /// candidate register in ascending DFF index — ascending `GateId`, the
    /// order of the scalar kernel's sorted register list — so every kernel
    /// consumes the same survival draws from a run's stream.
    pub(crate) fn harden(&self, regs: &mut DffMask, rng: &mut impl Rng) {
        if let Some(h) = self.hardening {
            let dff_bits = self.model.mpu.dff_bits();
            regs.retain(|i| h.flip_survives(dff_bits[i], rng));
        }
    }

    /// Shared downstream half of the flow, after the hardening filter:
    /// memory / computation classification, analytic evaluation or RTL
    /// resume of the post-hardening registers `regs` at cycle `te`.
    ///
    /// Memoized on `(te, regs)` in `memo`: returns the run's record, with
    /// the key's slot, which the chunk's fold stamps
    /// ([`ConclusionMemo::stamp`]). Registers the hardening left empty are
    /// masked without a probe.
    /// Because the verdict is a pure function of `(T_e, bits)`, the memo
    /// cannot change any result. Only a miss names the architectural bits.
    pub(crate) fn conclude_with(
        &self,
        te: u64,
        regs: DffMask,
        ff: &mut RtlResume,
        memo: &mut ConclusionMemo,
    ) -> RunRecord {
        if regs.is_empty() {
            return RunRecord::MASKED;
        }
        let slot = memo.probe((te, regs), || self.conclude_miss(te, regs, ff));
        RunRecord::concluded(slot, memo.slot(slot).verdict)
    }

    /// Whether a run's outcome is a fixed function of its sample: one
    /// glitch spot and no hardening or a deterministic one
    /// (`dup_config_vote`), so no draw after the sample decides anything.
    pub(crate) fn outcome_is_fixed(&self) -> bool {
        self.multi_fault.is_none()
            && matches!(
                self.hardening,
                None | Some(HardenedVariant::DupConfigVote(_))
            )
    }

    /// A memo miss of [`FaultRunner::conclude_with`]: classify the registers
    /// and evaluate them analytically or by RTL resume.
    fn conclude_miss(&self, te: u64, regs: DffMask, ff: &mut RtlResume) -> Concluded {
        // Only a miss names the architectural bits.
        let mut faulty_bits = std::mem::take(&mut ff.bits);
        self.bits_into(regs, &mut faulty_bits);
        let class = if faulty_bits
            .iter()
            .all(|&b| self.prechar.registers.kind(b) == RegisterKind::Memory)
        {
            StrikeClass::MemoryOnly
        } else {
            StrikeClass::Mixed
        };

        // Memory-type-only strikes go to the analytical evaluator; anything
        // it declines (and every computation-touching strike) goes through
        // the RTL resume from the nearest golden checkpoint.
        let (success, analytic) = match class {
            StrikeClass::MemoryOnly => match analytic::evaluate(self.eval, &faulty_bits, te) {
                AnalyticVerdict::NotApplicable => (ff.resume(self.eval, te, &faulty_bits), false),
                verdict => (verdict == AnalyticVerdict::Success, true),
            },
            _ => (ff.resume(self.eval, te, &faulty_bits), false),
        };
        ff.bits = faulty_bits;
        Concluded {
            success,
            class,
            analytic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harden::{HardenedSet, HardeningModel};
    use crate::resume::reference_verdict;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xlmc_netlist::GateId;
    use xlmc_soc::workloads;

    struct Fixture {
        model: SystemModel,
        eval: Evaluation,
        prechar: Precharacterization,
    }

    fn fixture() -> Fixture {
        let model = SystemModel::with_defaults().unwrap();
        let eval = Evaluation::new(workloads::illegal_write()).unwrap();
        let prechar = Precharacterization::run(&model, 8, 0.0);
        Fixture {
            model,
            eval,
            prechar,
        }
    }

    fn runner<'a>(f: &'a Fixture, hardening: Option<&'a HardenedVariant>) -> FaultRunner<'a> {
        FaultRunner {
            model: &f.model,
            eval: &f.eval,
            prechar: &f.prechar,
            hardening,
            multi_fault: None,
        }
    }

    #[test]
    fn dff_mask_walks_members_in_ascending_order() {
        let f = fixture();
        let r = runner(&f, None);
        let dffs = f.model.mpu.netlist().dffs();
        assert!(dffs.len() <= DffMask::CAPACITY, "{} DFFs", dffs.len());
        let regs: DffMask = [130, 5, 64, 63, 5].into_iter().collect();
        assert_eq!(regs.iter().collect::<Vec<_>>(), [5, 63, 64, 130]);
        assert_eq!(DffMask::from_words([1 << 5 | 1 << 63, 1, 1 << 2]), regs);
        // The filter asks about every member once, ascending.
        let mut asked = Vec::new();
        let mut kept = regs;
        kept.retain(|i| {
            asked.push(i);
            i != 63
        });
        assert_eq!(asked, [5, 63, 64, 130]);
        assert_eq!(kept.iter().collect::<Vec<_>>(), [5, 64, 130]);
        // Gate ids, bits and DFF indices name the same registers.
        assert_eq!(r.dff_mask(&[dffs[64], dffs[5], dffs[130], dffs[63]]), regs);
        let mut bits = Vec::new();
        r.bits_into(regs, &mut bits);
        assert_eq!(bits.len(), 4);
        assert_eq!(r.bits_mask(&bits), regs);
        assert!(bits
            .iter()
            .zip(regs.iter())
            .all(|(&b, i)| f.model.mpu.dff(b) == dffs[i]));
    }

    #[test]
    fn direct_hit_on_violation_register_succeeds_at_t1() {
        let f = fixture();
        let r = runner(&f, None);
        let mut rng = StdRng::seed_from_u64(1);
        let sample = AttackSample {
            t: 1,
            center: f.model.mpu.dff(MpuBit::Violation),
            radius: 0.0,
            phase: 0,
        };
        let out = r.run(&sample, &mut rng);
        assert_eq!(out.class, StrikeClass::Mixed);
        assert!(out.success, "suppressing the responding signal at T_t - 1");
        assert!(!out.analytic);
        assert_eq!(out.faulty_bits, vec![MpuBit::Violation]);
    }

    #[test]
    fn violation_register_hit_at_wrong_time_fails() {
        let f = fixture();
        let r = runner(&f, None);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = AttackSample {
            t: 20,
            center: f.model.mpu.dff(MpuBit::Violation),
            radius: 0.0,
            phase: 0,
        };
        let out = r.run(&sample, &mut rng);
        assert!(!out.success, "the flip is overwritten long before T_t");
    }

    #[test]
    fn enable_register_hit_succeeds_at_any_t() {
        // The enable flip persists forever (long error lifetime), so the
        // attack works regardless of the timing distance — as long as the
        // flip lands before the verdict is computed (t >= 2; at t = 1 the
        // violation verdict has already latched). Note the flip is
        // *contaminating* (it changes downstream violation outcomes), so
        // the measured classification sends it down the RTL path.
        let f = fixture();
        let r = runner(&f, None);
        let mut rng = StdRng::seed_from_u64(3);
        for t in [2, 5, 25, 40] {
            let sample = AttackSample {
                t,
                center: f.model.mpu.dff(MpuBit::Enable),
                radius: 0.0,
                phase: 0,
            };
            let out = r.run(&sample, &mut rng);
            assert!(out.success, "enable flip at t = {t}");
            assert_eq!(out.faulty_bits, vec![MpuBit::Enable]);
        }
    }

    #[test]
    fn strike_on_inert_config_bit_fails_analytically() {
        let f = fixture();
        let r = runner(&f, None);
        let mut rng = StdRng::seed_from_u64(4);
        let sample = AttackSample {
            t: 10,
            center: f.model.mpu.dff(MpuBit::Base(2, 9)),
            radius: 0.0,
            phase: 0,
        };
        let out = r.run(&sample, &mut rng);
        assert!(!out.success);
        assert_eq!(out.class, StrikeClass::MemoryOnly);
        assert!(out.analytic);
    }

    #[test]
    fn out_of_run_injection_is_masked() {
        let f = fixture();
        let r = runner(&f, None);
        let mut rng = StdRng::seed_from_u64(5);
        let sample = AttackSample {
            t: 1_000_000,
            center: GateId(0),
            radius: 0.0,
            phase: 0,
        };
        let out = r.run(&sample, &mut rng);
        assert_eq!(out.class, StrikeClass::Masked);
        assert!(!out.success);
        assert!(out.injection_cycle.is_none());
    }

    #[test]
    fn hardening_absorbs_most_direct_hits() {
        let f = fixture();
        let hardened = HardenedVariant::Uniform(HardenedSet::new(
            [MpuBit::Violation],
            HardeningModel::default(),
        ));
        let r = runner(&f, Some(&hardened));
        let mut rng = StdRng::seed_from_u64(6);
        let sample = AttackSample {
            t: 1,
            center: f.model.mpu.dff(MpuBit::Violation),
            radius: 0.0,
            phase: 0,
        };
        let successes = (0..100)
            .filter(|_| r.run(&sample, &mut rng).success)
            .count();
        assert!(
            (2..=25).contains(&successes),
            "hardened success rate should be ~10%, got {successes}/100"
        );
    }

    #[test]
    fn degenerate_second_spot_matches_single_spot() {
        // Second spot pinned to the primary center with radius 0: the
        // union equals the primary impacted set, so the double-glitch
        // verdict must match the single-spot flow bit for bit.
        let f = fixture();
        let single = runner(&f, None);
        let center = f.model.mpu.dff(MpuBit::Violation);
        let glitch = xlmc_fault::DoubleGlitch::new(
            xlmc_fault::SpatialDist::Delta(center),
            xlmc_fault::RadiusDist::fixed(0.0),
        );
        let double = FaultRunner {
            multi_fault: Some(&glitch),
            ..single
        };
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for t in [1, 3, 7] {
            let sample = AttackSample {
                t,
                center,
                radius: 1.5,
                phase: 2,
            };
            let a = single.run(&sample, &mut rng_a);
            let b = double.run(&sample, &mut rng_b);
            assert_eq!(a.success, b.success, "t = {t}");
            assert_eq!(a.faulty_bits, b.faulty_bits, "t = {t}");
        }
    }

    #[test]
    fn second_spot_widens_the_error_set() {
        // A second spot parked on the Enable DFF adds that cell to every
        // in-run strike; repeated runs are bit-deterministic.
        let f = fixture();
        let base = runner(&f, None);
        let glitch = xlmc_fault::DoubleGlitch::new(
            xlmc_fault::SpatialDist::Delta(f.model.mpu.dff(MpuBit::Enable)),
            xlmc_fault::RadiusDist::fixed(0.0),
        );
        let double = FaultRunner {
            multi_fault: Some(&glitch),
            ..base
        };
        let sample = AttackSample {
            t: 2,
            center: f.model.mpu.dff(MpuBit::Violation),
            radius: 0.0,
            phase: 0,
        };
        let mut rng_a = StdRng::seed_from_u64(12);
        let mut rng_b = StdRng::seed_from_u64(12);
        let a = double.run(&sample, &mut rng_a);
        let b = double.run(&sample, &mut rng_b);
        assert_eq!(a.success, b.success);
        assert_eq!(a.faulty_bits, b.faulty_bits);
        // The primary-only strike at phase 0 latches the violation bit; the
        // second spot can only add to the struck set.
        let solo = base.run(&sample, &mut StdRng::seed_from_u64(12));
        for bit in &solo.faulty_bits {
            assert!(
                a.faulty_bits.contains(bit),
                "double-glitch dropped {bit:?} from the error set"
            );
        }
    }

    #[test]
    fn analytic_and_rtl_agree_on_memory_only_strikes() {
        // Force the RTL path for strikes the analytic evaluator judged, by
        // re-running the same error set through rtl_resume.
        let f = fixture();
        let r = runner(&f, None);
        let mut rng = StdRng::seed_from_u64(7);
        let mut checked = 0;
        for (i, &cell) in f
            .prechar
            .space
            .frame_for(5)
            .unwrap()
            .cells
            .iter()
            .enumerate()
        {
            if i % 7 != 0 {
                continue; // subsample for test speed
            }
            let sample = AttackSample {
                t: 5,
                center: cell,
                radius: 1.0,
                phase: 3,
            };
            let out = r.run(&sample, &mut rng);
            if out.class == StrikeClass::MemoryOnly && out.analytic {
                let te = out.injection_cycle.unwrap();
                let cached = RtlResume::default().resume(&f.eval, te, &out.faulty_bits);
                let slow = reference_verdict(&f.eval, te, &out.faulty_bits);
                assert_eq!(out.success, cached, "cell {cell}: {:?}", out.faulty_bits);
                assert_eq!(out.success, slow, "cell {cell}: {:?}", out.faulty_bits);
                checked += 1;
            }
        }
        assert!(checked > 3, "want a few analytic strikes, got {checked}");
    }

    #[test]
    fn severe_clock_glitch_can_defeat_the_mechanism() {
        // At t = 1 the verdict is being computed: a glitch short enough to
        // violate the comparator paths corrupts what the violation
        // register latches.
        let f = fixture();
        let r = runner(&f, None);
        let mut rng = StdRng::seed_from_u64(21);
        let mut any_success = false;
        for period in [40.0, 80.0, 120.0, 200.0] {
            let out = r.run_glitch(1, period, &mut rng);
            if out.success {
                any_success = true;
            }
        }
        assert!(any_success, "some glitch depth should defeat the check");
    }

    #[test]
    fn gentle_clock_glitch_is_masked() {
        let f = fixture();
        let r = runner(&f, None);
        let mut rng = StdRng::seed_from_u64(22);
        // A glitch above the critical path never violates timing.
        let period = f.model.glitch.critical_path_ps() + 10.0;
        let out = r.run_glitch(1, period, &mut rng);
        assert_eq!(out.class, StrikeClass::Masked);
        assert!(!out.success);
    }

    #[test]
    fn run_with_scratch_reuse_matches_run() {
        // Drive many samples (masked, analytic, RTL, out-of-run) through ONE
        // scratch; each outcome must equal the allocating API under an
        // identical RNG stream.
        let f = fixture();
        let r = runner(&f, None);
        let mut scratch = FlowScratch::default();
        let mut rng_a = StdRng::seed_from_u64(33);
        let mut rng_b = StdRng::seed_from_u64(33);
        let cells = f.prechar.space.frame_for(5).unwrap().cells.clone();
        let mut samples: Vec<AttackSample> = cells
            .iter()
            .step_by(5)
            .map(|&c| AttackSample {
                t: 5,
                center: c,
                radius: 1.0,
                phase: 2,
            })
            .collect();
        samples.push(AttackSample {
            t: 1_000_000,
            center: GateId(0),
            radius: 0.0,
            phase: 0,
        });
        samples.push(AttackSample {
            t: 1,
            center: f.model.mpu.dff(MpuBit::Violation),
            radius: 0.0,
            phase: 0,
        });
        for sample in &samples {
            let fresh = r.run(sample, &mut rng_a);
            let view = r.run_with(sample, &mut rng_b, &mut scratch);
            assert_eq!(view.success, fresh.success, "{sample:?}");
            assert_eq!(view.class, fresh.class, "{sample:?}");
            assert_eq!(view.faulty_bits, &fresh.faulty_bits[..], "{sample:?}");
            assert_eq!(view.analytic, fresh.analytic, "{sample:?}");
            assert_eq!(view.injection_cycle, fresh.injection_cycle, "{sample:?}");
        }
    }

    #[test]
    fn fast_forward_matches_reference_resume() {
        // Drive a sample stream through one scratch twice, so the second
        // pass resumes from cached snapshots: every RTL-concluded outcome
        // must equal the uncached run-to-halt reference.
        let f = fixture();
        let r = runner(&f, None);
        let mut scratch = FlowScratch::default();
        let mut rng = StdRng::seed_from_u64(44);
        let cells = f.prechar.space.frame_for(4).unwrap().cells.clone();
        let mut checked = 0;
        for pass in 0..2 {
            for (i, &c) in cells.iter().enumerate() {
                if i % 3 != 0 {
                    continue; // subsample for test speed
                }
                let sample = AttackSample {
                    t: 4,
                    center: c,
                    radius: 1.5,
                    phase: (i % 8) as u8,
                };
                let out = r.run_with(&sample, &mut rng, &mut scratch).to_outcome();
                if let (Some(te), false) = (out.injection_cycle, out.analytic) {
                    let slow = reference_verdict(&f.eval, te, &out.faulty_bits);
                    assert_eq!(out.success, slow, "pass {pass} cell {c}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "fixture should reach the RTL path");
        let stats = scratch.resume_stats();
        assert!(stats.rtl_resumes > 0, "fixture should reach the RTL path");
        assert!(stats.checkpoint_cache_hits > 0, "repeat pass should hit");
    }

    #[test]
    fn masked_strikes_report_injection_cycle() {
        let f = fixture();
        let r = runner(&f, None);
        let mut rng = StdRng::seed_from_u64(8);
        // Strike an input marker region: radius 0 at a cell, many strikes
        // during quiet logic will be masked; find one masked outcome.
        let cells = f.prechar.space.frame_for(3).unwrap().cells.clone();
        let masked = cells.iter().find_map(|&c| {
            let out = r.run(
                &AttackSample {
                    t: 3,
                    center: c,
                    radius: 0.0,
                    phase: 1,
                },
                &mut rng,
            );
            (out.class == StrikeClass::Masked).then_some(out)
        });
        let masked = masked.expect("some strike should be masked");
        assert!(masked.injection_cycle.is_some());
        assert!(!masked.success);
    }
}
