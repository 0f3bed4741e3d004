//! The evaluation context: system model + workload + golden run.

use std::fmt;
use std::ops::Range;
use xlmc_gatesim::bitparallel::{evaluate_combinational, transpose64, CycleWindow, PackedTraces};
use xlmc_gatesim::cycle::CycleSim;
use xlmc_gatesim::glitch::GlitchSim;
use xlmc_gatesim::transient::{TransientConfig, TransientSim};
use xlmc_netlist::{NetlistError, Placement};
use xlmc_soc::golden::GoldenRun;
use xlmc_soc::{MpuNetlist, Workload};

/// Errors raised while building an evaluation context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The gate netlist failed analysis (cannot happen for the stock MPU).
    Netlist(NetlistError),
    /// The golden run of the attack workload never triggered the security
    /// mechanism, so there is no target cycle to attack.
    NoViolationInGoldenRun,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Netlist(e) => write!(f, "netlist analysis failed: {e}"),
            EvalError::NoViolationInGoldenRun => {
                write!(f, "golden run triggered no violation; no target cycle")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<NetlistError> for EvalError {
    fn from(e: NetlistError) -> Self {
        EvalError::Netlist(e)
    }
}

/// The gate-level system model: elaborated MPU, placement, and the cached
/// simulators. Shared by every evaluation of the same design.
#[derive(Debug, Clone)]
pub struct SystemModel {
    /// The elaborated MPU with its cross-level register map.
    pub mpu: MpuNetlist,
    /// The placed netlist (for the radiated-spot model).
    pub placement: Placement,
    /// Levelized logic simulator for the MPU netlist.
    pub cycle_sim: CycleSim,
    /// Transient (SET) simulator for the fault-injection cycle.
    pub transient: TransientSim,
    /// Clock-glitch (timing-violation) simulator.
    pub glitch: GlitchSim,
}

impl SystemModel {
    /// Build the model with the given transient parameters.
    ///
    /// # Errors
    ///
    /// Propagates netlist analysis failures (none for the stock MPU).
    pub fn new(transient_cfg: TransientConfig) -> Result<Self, EvalError> {
        let mpu = MpuNetlist::new();
        let placement = Placement::new(mpu.netlist());
        let cycle_sim = CycleSim::new(mpu.netlist())?;
        let transient = TransientSim::new(mpu.netlist(), transient_cfg)?;
        let glitch = GlitchSim::new(mpu.netlist(), transient_cfg.clock_period_ps)?;
        Ok(Self {
            mpu,
            placement,
            cycle_sim,
            transient,
            glitch,
        })
    }

    /// The model with default transient parameters.
    ///
    /// # Errors
    ///
    /// See [`SystemModel::new`].
    pub fn with_defaults() -> Result<Self, EvalError> {
        Self::new(TransientConfig::default())
    }

    /// The value trace of every MPU net over `cycles` of `golden` (trace
    /// cycle `c` is golden cycle `cycles.start + c`): register and input
    /// values as recorded, everything else by one bit-parallel sweep.
    ///
    /// Registers and inputs are written a whole word (64 cycles) at a
    /// time: per block, the packed MPU states and input words of its cycles
    /// are transposed into one trace word per state bit and per input.
    pub(crate) fn golden_traces(&self, golden: &GoldenRun, cycles: Range<usize>) -> PackedTraces {
        let netlist = self.mpu.netlist();
        let mut traces = PackedTraces::zeroed(netlist, cycles.len());
        let dff_at: Vec<usize> = self.mpu.dff_bits().iter().map(|b| b.index()).collect();
        // rows[w][c]: word `w` of cycle `c`'s packed state (w < 3) or its
        // input word (w = 3); after the transpose, rows[w][j] is the trace
        // word of state bit 64 w + j, or of input j.
        let mut rows = [[0u64; 64]; 4];
        for (w, start) in cycles.clone().step_by(64).enumerate() {
            let block = start..(start + 64).min(cycles.end);
            for row in &mut rows {
                row.fill(0);
            }
            for (c, g) in block.enumerate() {
                let packed = golden.mpu_states[g].packed();
                for (row, word) in rows.iter_mut().zip(packed) {
                    row[c] = word;
                }
                let stim = &golden.stimulus[g];
                rows[3][c] = MpuNetlist::input_word(stim.request, stim.cfg_write);
            }
            for row in &mut rows {
                transpose64(row);
            }
            for (&dff, &at) in netlist.dffs().iter().zip(&dff_at) {
                traces.set_word(dff, w, rows[at / 64][at % 64]);
            }
            for (&pi, &word) in netlist.inputs().iter().zip(&rows[3]) {
                traces.set_word(pi, w, word);
            }
        }
        evaluate_combinational(netlist, &mut traces)
            .expect("MPU netlist is acyclic by construction");
        traces
    }

    /// The nominal value of every MPU net in every cycle of `golden`,
    /// packed one `u64` per net per 64-cycle block: the compiled kernel's
    /// stable values. Each block is derived by one bit-parallel sweep, the
    /// first time a campaign injects in it.
    pub fn golden_window<'a>(&'a self, golden: &'a GoldenRun) -> CycleWindow<'a> {
        CycleWindow::new(self.mpu.netlist(), golden.cycles as usize, move |cycles| {
            self.golden_traces(golden, cycles)
        })
    }
}

/// One attack-evaluation setup: a workload, its recorded golden run and the
/// derived target cycle `T_t`.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The benchmark under attack.
    pub workload: Workload,
    /// The recorded golden run.
    pub golden: GoldenRun,
    /// The target cycle `T_t`: the cycle in which the malicious operation
    /// *resolves* (the golden run's violation verdict is consumed there —
    /// commit gating and trap both read the registered responding signal).
    pub target_cycle: u64,
    /// Cap for fault runs (golden length plus slack for diverging runs).
    pub max_cycles: u64,
}

/// Default checkpoint interval for golden runs.
pub const CHECKPOINT_INTERVAL: u64 = 32;

impl Evaluation {
    /// Record the golden run of `workload` and locate the target cycle.
    ///
    /// # Errors
    ///
    /// Fails with [`EvalError::NoViolationInGoldenRun`] when the workload
    /// never trips the security mechanism (nothing to attack).
    pub fn new(workload: Workload) -> Result<Self, EvalError> {
        let golden = GoldenRun::record(&workload.program, 20_000, CHECKPOINT_INTERVAL);
        // The combinational violation fires one cycle before the access
        // resolves; the resolution cycle is where the verdict acts.
        let target_cycle = golden
            .first_violation_cycle()
            .ok_or(EvalError::NoViolationInGoldenRun)?
            + 1;
        let max_cycles = golden.cycles + 500;
        Ok(Self {
            workload,
            golden,
            target_cycle,
            max_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlmc_soc::workloads;

    #[test]
    fn model_builds_with_defaults() {
        let m = SystemModel::with_defaults().unwrap();
        assert!(m.mpu.netlist().stats().combinational > 100);
        assert!(!m.placement.placeable().is_empty());
    }

    #[test]
    fn evaluation_finds_target_cycle_for_both_attacks() {
        for w in [workloads::illegal_write(), workloads::illegal_read()] {
            let name = w.name;
            let e = Evaluation::new(w).unwrap();
            assert!(e.target_cycle > 100, "{name}: T_t = {}", e.target_cycle);
            assert!(e.target_cycle < e.golden.cycles);
            assert!(e.max_cycles > e.golden.cycles);
        }
    }

    /// The golden window holds, for every net and every cycle of all five
    /// goals' golden runs, the value the scalar `CycleSim` gives that
    /// cycle: across every 64-cycle block boundary and through the last,
    /// partial block.
    #[test]
    fn golden_window_matches_cycle_sim_on_every_goal() {
        let model = SystemModel::with_defaults().unwrap();
        let netlist = model.mpu.netlist();
        let (mut state, mut inputs) = (Vec::new(), Vec::new());
        let mut cv = xlmc_gatesim::CycleValues::default();
        let mut partial_blocks = 0;
        for workload in [
            workloads::illegal_write(),
            workloads::illegal_read(),
            workloads::dma_exfiltration(),
            workloads::trap_escalation(),
            workloads::instruction_skip(),
        ] {
            let name = workload.name;
            let golden = Evaluation::new(workload).unwrap().golden;
            let cycles = golden.cycles as usize;
            assert!(
                cycles > 64,
                "{name}: {cycles} cycles cross no block boundary"
            );
            partial_blocks += usize::from(!cycles.is_multiple_of(64));
            let window = model.golden_window(&golden);
            assert_eq!(window.cycles(), cycles, "{name}");
            for c in 0..cycles {
                model
                    .mpu
                    .state_vector_into(&golden.mpu_states[c], &mut state);
                let stim = &golden.stimulus[c];
                model
                    .mpu
                    .input_values_into(stim.request, stim.cfg_write, &mut inputs);
                model.cycle_sim.eval_into(netlist, &state, &inputs, &mut cv);
                let (words, bit) = window.block(c);
                assert_eq!(words.len(), netlist.len());
                assert_eq!(bit as usize, c % 64);
                for (id, _) in netlist.iter() {
                    assert_eq!(
                        words[id.index()] >> bit & 1 == 1,
                        cv.value(id),
                        "{name}: net {id} cycle {c}"
                    );
                }
            }
        }
        assert!(partial_blocks > 0, "no golden run ends in a partial block");
    }

    /// The word-level traces equal the ones written bit by bit from the
    /// per-cycle state and input vectors, for all five goals' golden runs
    /// and the synthetic one, over whole runs (ending in a partial block)
    /// and over a range that starts and ends off the block grid.
    #[test]
    fn golden_traces_equal_the_per_bit_ones() {
        let model = SystemModel::with_defaults().unwrap();
        let netlist = model.mpu.netlist();
        let per_bit = |golden: &GoldenRun, cycles: Range<usize>| {
            let mut traces = PackedTraces::zeroed(netlist, cycles.len());
            let (mut state, mut inputs) = (Vec::new(), Vec::new());
            for (c, g) in cycles.enumerate() {
                model
                    .mpu
                    .state_vector_into(&golden.mpu_states[g], &mut state);
                for (&dff, &v) in netlist.dffs().iter().zip(&state) {
                    traces.set_value(dff, c, v);
                }
                let stim = &golden.stimulus[g];
                model
                    .mpu
                    .input_values_into(stim.request, stim.cfg_write, &mut inputs);
                for (&pi, &v) in netlist.inputs().iter().zip(&inputs) {
                    traces.set_value(pi, c, v);
                }
            }
            evaluate_combinational(netlist, &mut traces).unwrap();
            traces
        };
        let mut goldens: Vec<GoldenRun> = [
            workloads::illegal_write(),
            workloads::illegal_read(),
            workloads::dma_exfiltration(),
            workloads::trap_escalation(),
            workloads::instruction_skip(),
        ]
        .into_iter()
        .map(|w| Evaluation::new(w).unwrap().golden)
        .collect();
        let synth = workloads::synthetic_precharacterization();
        goldens.push(GoldenRun::record(&synth.program, 20_000, 64));
        for golden in &goldens {
            let n = golden.cycles as usize;
            assert!(!n.is_multiple_of(64) && n > 130, "{n} cycles");
            for cycles in [0..n, 3..n - 5] {
                let fast = model.golden_traces(golden, cycles.clone());
                let slow = per_bit(golden, cycles.clone());
                for (id, _) in netlist.iter() {
                    assert_eq!(fast.trace(id), slow.trace(id), "net {id}, {cycles:?}");
                }
            }
        }
    }

    #[test]
    fn evaluation_rejects_violation_free_workloads() {
        use xlmc_soc::asm::assemble;
        use xlmc_soc::AttackGoal;
        let w = Workload {
            name: "benign",
            description: "no violation",
            program: assemble("li r1, 1\nhalt").unwrap().words,
            goal: AttackGoal::IllegalWrite,
        };
        assert!(matches!(
            Evaluation::new(w),
            Err(EvalError::NoViolationInGoldenRun)
        ));
    }
}
