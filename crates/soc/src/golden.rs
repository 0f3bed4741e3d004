//! The RTL-level golden run: checkpoints, traces and per-cycle MPU stimulus.
//!
//! Paper §5.1: "Before the fault attack run, a complete run of the benchmark
//! is performed, termed as the golden run. During the golden run, golden
//! checkpoints are dumped at intermediate points." The golden run also
//! records everything the pre-characterization and the fault-attack runs
//! need to replay any cycle:
//!
//! * full-system checkpoints every `interval` cycles (restart points),
//! * the MPU register state at the start of every cycle,
//! * the request/config-write stimulus the MPU saw in every cycle (the
//!   gate-level netlist's primary-input values for that cycle),
//! * the resolved data-access trace (for the analytical evaluation), and
//! * the cycles where the combinational violation fired.
//!
//! With the MPU states and stimulus, [`GoldenRun::step_faulty_mpu`] runs a
//! faulty MPU on its own for as long as the rest of the system cannot see
//! its error: the module-first half of every fault evaluation. It jumps
//! over the golden run's *idle* cycles, where the MPU does nothing.

use crate::mpu::{AccessReq, CfgWrite, MpuState};
use crate::soc::{AccessRecord, Soc};

/// Per-cycle stimulus seen by the MPU (drives the gate-level netlist).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleStimulus {
    /// The request issued this cycle (latched into the MPU pipeline at the
    /// end of the cycle).
    pub request: Option<AccessReq>,
    /// The configuration write committed this cycle.
    pub cfg_write: Option<CfgWrite>,
    /// Whether the combinational violation signal fired this cycle.
    pub viol_comb: bool,
    /// Whether an allowed read of the MPU configuration window resolved
    /// this cycle (the bus then reads the configuration registers).
    pub cfg_read: bool,
}

/// Where [`GoldenRun::step_faulty_mpu`] stopped, as the cycle whose start
/// the faulty MPU state stands at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpuStop {
    /// The faulty state equals the golden one: the error is gone, and the
    /// whole system is golden from this cycle on.
    Reconverged(u64),
    /// The rest of the system reads the MPU differently from golden in
    /// this cycle (its registered violation or a configuration-window
    /// read): only the whole system can go on from here.
    Visible(u64),
    /// The end cycle, with the error still private to the MPU.
    End(u64),
}

/// The recorded golden run of one benchmark.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// Cycles between checkpoints.
    pub interval: u64,
    /// Checkpoints: `checkpoints[k]` is the state *at the start of* cycle
    /// `k * interval`.
    pub checkpoints: Vec<Soc>,
    /// The MPU register state at the start of every cycle.
    pub mpu_states: Vec<MpuState>,
    /// Per-cycle MPU stimulus.
    pub stimulus: Vec<CycleStimulus>,
    /// Every resolved data access.
    pub access_trace: Vec<AccessRecord>,
    /// Cycles where the combinational violation fired.
    pub violation_cycles: Vec<u64>,
    /// Cycles where the core entered the trap handler.
    pub trap_cycles: Vec<u64>,
    /// The system state after the run ended.
    pub final_soc: Soc,
    /// Number of cycles executed (halt or the cap).
    pub cycles: u64,
    /// Bit `c` is set when cycle `c` is idle: `c ≥ 1`, cycle `c - 1`
    /// issued no request and raised no combinational violation, and cycle
    /// `c` issues no request, commits no configuration write and reads no
    /// configuration word. The golden MPU then starts `c` with an empty
    /// pipeline and a clear `violation`, and stepping it through `c`
    /// changes nothing.
    idle: Vec<u64>,
}

impl GoldenRun {
    /// Record the golden run of `program` (capped at `max_cycles`),
    /// checkpointing every `interval` cycles.
    ///
    /// # Panics
    ///
    /// Panics when `interval` is zero or the program does not fit in RAM.
    pub fn record(program: &[u32], max_cycles: u64, interval: u64) -> Self {
        assert!(interval > 0, "checkpoint interval must be positive");
        let mut soc = Soc::new(program);
        let mut run = GoldenRun {
            interval,
            checkpoints: Vec::new(),
            mpu_states: Vec::new(),
            stimulus: Vec::new(),
            access_trace: Vec::new(),
            violation_cycles: Vec::new(),
            trap_cycles: Vec::new(),
            final_soc: soc.clone(),
            cycles: 0,
            idle: Vec::new(),
        };
        while !soc.halted() && soc.cycle < max_cycles {
            if soc.cycle.is_multiple_of(interval) {
                run.checkpoints.push(soc.clone());
            }
            run.mpu_states.push(soc.mpu);
            let cycle = soc.cycle;
            let ev = soc.step();
            run.stimulus.push(CycleStimulus {
                request: ev.issued.map(|(_, r)| r),
                cfg_write: ev.cfg_write,
                viol_comb: ev.viol_comb,
                cfg_read: ev.cfg_read,
            });
            if let Some(rec) = ev.resolved {
                run.access_trace.push(rec);
            }
            if ev.viol_comb {
                run.violation_cycles.push(cycle);
            }
            if ev.trapped {
                run.trap_cycles.push(cycle);
            }
        }
        run.cycles = soc.cycle;
        run.final_soc = soc;
        run.idle = vec![0; run.stimulus.len().div_ceil(64)];
        for (c, pair) in run.stimulus.windows(2).enumerate() {
            let (prev, now) = (&pair[0], &pair[1]);
            if prev.request.is_none()
                && !prev.viol_comb
                && now.request.is_none()
                && now.cfg_write.is_none()
                && !now.cfg_read
            {
                run.idle[(c + 1) / 64] |= 1 << ((c + 1) % 64);
            }
        }
        run
    }

    /// Whether cycle `c` is idle (see `idle`).
    #[cfg(test)]
    fn is_idle(&self, c: u64) -> bool {
        self.idle
            .get((c / 64) as usize)
            .is_some_and(|w| w >> (c % 64) & 1 == 1)
    }

    /// The number of consecutive idle cycles from `c` on, up to `end`.
    #[inline]
    fn idle_run(&self, c: u64, end: u64) -> u64 {
        let mut at = c;
        while at < end {
            let Some(word) = self.idle.get((at / 64) as usize) else {
                break;
            };
            let shift = at % 64;
            let ones = u64::from((word >> shift).trailing_ones());
            at += ones;
            if ones < 64 - shift {
                break;
            }
        }
        at.min(end) - c
    }

    /// The latest checkpoint at or before `cycle`, for fault-run restart.
    ///
    /// # Panics
    ///
    /// Panics when no checkpoint exists (empty run).
    pub fn nearest_checkpoint(&self, cycle: u64) -> &Soc {
        let idx = (cycle / self.interval) as usize;
        let idx = idx.min(self.checkpoints.len().saturating_sub(1));
        &self.checkpoints[idx]
    }

    /// The first cycle where the combinational violation fired — for the
    /// attack workloads this is the target cycle `T_t` where the security
    /// mechanism catches the malicious operation.
    pub fn first_violation_cycle(&self) -> Option<u64> {
        self.violation_cycles.first().copied()
    }

    /// Whether the given cycle index was recorded.
    pub fn has_cycle(&self, cycle: u64) -> bool {
        cycle < self.cycles
    }

    /// Step a faulty MPU alone on the recorded stimulus, from the start of
    /// `cycle` up to the start of `end` (at most [`GoldenRun::cycles`]),
    /// calling `on_step(state, n)` with each state reached and the number
    /// `n` of cycles it stands for. Returns where stepping stopped and how
    /// many of the cycles before it were idle cycles skipped.
    ///
    /// The rest of the system reads the MPU in exactly two places of a
    /// cycle: the registered `violation`, which gates the resolving access
    /// and raises the trap, and the configuration registers, through an
    /// allowed read of their window. While both read as in the golden
    /// cycle, the rest of the system does what it did in the golden run,
    /// so the MPU sees the recorded request and configuration write, and
    /// stepping it alone is exact. Stepping stops at the first cycle where
    /// that fails ([`MpuStop::Visible`]) or where the faulty state equals
    /// the golden one ([`MpuStop::Reconverged`]).
    ///
    /// Past the start cycle, a faulty state that enters an idle cycle (no
    /// request in it or the cycle before, no violation raised the cycle
    /// before, no configuration write or read) has the empty pipeline the
    /// idle request of
    /// the cycle before left in it, and, having passed the checks, the
    /// golden clear `violation`: stepping it through the cycle changes
    /// nothing, exactly as for the golden state. Both states therefore
    /// stand still over a run of idle cycles, every check in it gives the
    /// answer the first one gave, and the run is skipped in one call of
    /// `on_step` with `n` the run's length.
    #[inline]
    pub fn step_faulty_mpu(
        &self,
        mpu: &mut MpuState,
        cycle: u64,
        end: u64,
        mut on_step: impl FnMut(&MpuState, u64),
    ) -> (MpuStop, u64) {
        debug_assert!(end <= self.cycles, "stepping past the golden run");
        let mut c = cycle;
        let mut skipped = 0;
        while c < end {
            let golden = &self.mpu_states[c as usize];
            if mpu == golden {
                return (MpuStop::Reconverged(c), skipped);
            }
            let stim = &self.stimulus[c as usize];
            if mpu.violation != golden.violation || (stim.cfg_read && mpu.config != golden.config) {
                return (MpuStop::Visible(c), skipped);
            }
            let idle = if c > cycle { self.idle_run(c, end) } else { 0 };
            if idle > 0 {
                on_step(mpu, idle);
                skipped += idle;
                c += idle;
            } else {
                mpu.step(stim.request, stim.cfg_write);
                on_step(mpu, 1);
                c += 1;
            }
        }
        (MpuStop::End(c), skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::mpu::MpuBit;

    fn golden(src: &str) -> GoldenRun {
        GoldenRun::record(&assemble(src).unwrap().words, 5_000, 16)
    }

    #[test]
    fn records_cycles_and_checkpoints() {
        let run = golden(
            "
            li r1, 50
            li r2, 0
        loop:
            addi r2, r2, 1
            bne r2, r1, loop
            halt
            ",
        );
        assert!(run.cycles > 100);
        assert_eq!(run.mpu_states.len() as u64, run.cycles);
        assert_eq!(run.stimulus.len() as u64, run.cycles);
        assert_eq!(run.checkpoints.len() as u64, run.cycles.div_ceil(16));
        assert!(run.final_soc.halted());
    }

    #[test]
    fn nearest_checkpoint_is_at_or_before() {
        let run = golden(
            "
            li r1, 100
            li r2, 0
        loop:
            addi r2, r2, 1
            bne r2, r1, loop
            halt
            ",
        );
        for cycle in [0u64, 1, 15, 16, 17, 100] {
            let ck = run.nearest_checkpoint(cycle);
            assert!(ck.cycle <= cycle);
            assert!(cycle - ck.cycle < 2 * run.interval);
        }
    }

    #[test]
    fn replay_from_checkpoint_matches_golden_tail() {
        let src = "
            li r1, 60
            li r2, 0
        loop:
            addi r2, r2, 1
            sw r2, 0x4000(r0)
            bne r2, r1, loop
            halt
            ";
        let run = golden(src);
        let mut replay = run.nearest_checkpoint(40).clone();
        while !replay.halted() {
            assert_eq!(
                replay.mpu, run.mpu_states[replay.cycle as usize],
                "MPU track must match a faithful replay at cycle {}",
                replay.cycle
            );
            replay.step();
        }
        assert_eq!(replay, run.final_soc);
    }

    #[test]
    fn violation_cycle_recorded_for_illegal_access() {
        let run = golden(
            "
            li r1, 0x8100
            li r2, 0
            sw r2, 0(r1)
            li r2, 0x5fff
            sw r2, 4(r1)
            li r2, 0xf
            sw r2, 8(r1)
            li r2, 1
            sw r2, 0x30(r1)
            li r3, handler
            csrrw r0, tvec, r3
            li r4, user
            csrrw r0, epc, r4
            mret
        user:
            li r5, 0x7000
            sw r0, 0(r5)
            nop
            nop
            nop
            halt
        handler:
            li r7, 1
            csrrw r0, isolated, r7
            halt
            ",
        );
        let tt = run.first_violation_cycle().expect("violation must fire");
        assert!(run.trap_cycles.iter().any(|&c| c == tt + 1));
        assert!(!run.access_trace.is_empty());
        let blocked: Vec<_> = run.access_trace.iter().filter(|a| !a.allowed).collect();
        assert_eq!(blocked.len(), 1);
        assert_eq!(blocked[0].req.addr, 0x7000);
    }

    /// A privileged program that writes region 2's base (a region no
    /// access ever matches), waits, reads the word back through the
    /// configuration window and stores it to RAM.
    const CFG_READ_SRC: &str = "
            li r1, 0x8100
            li r2, 0x51e4
            sw r2, 24(r1)
            nop
            nop
            nop
            nop
            nop
            nop
            lw r3, 24(r1)
            sw r3, 0x4800(r0)
            nop
            nop
            nop
            halt
            ";

    #[test]
    fn a_configuration_read_stops_module_first_stepping() {
        let run = golden(CFG_READ_SRC);
        let reads: Vec<u64> = (0..run.cycles)
            .filter(|&c| run.stimulus[c as usize].cfg_read)
            .collect();
        assert_eq!(reads.len(), 1, "one configuration read: {reads:?}");
        let read = reads[0];
        let from = read - 4;
        let bit = MpuBit::Base(2, 3);
        assert_eq!(run.mpu_states[from as usize].config.regions[2].base, 0x51e4);

        // The flip changes no verdict, so only the read can show it.
        let mut mpu = run.mpu_states[from as usize];
        mpu.toggle_bit(bit);
        let mut steps = 0;
        let (stop, _) = run.step_faulty_mpu(&mut mpu, from, run.cycles, |_, n| steps += n);
        assert_eq!(stop, MpuStop::Visible(read));
        assert_eq!(steps, read - from);

        // The whole system taking over at the read ends exactly where the
        // whole-system faulty run from the flip ends, and the read saw it.
        let mut reference = run.nearest_checkpoint(from).clone();
        reference.run_until_halt(from);
        reference.mpu.toggle_bit(bit);
        reference.run_until_halt(5_000);
        let mut resumed = run.nearest_checkpoint(read).clone();
        resumed.run_until_halt(read);
        resumed.mpu = mpu;
        resumed.run_until_halt(5_000);
        assert_eq!(resumed, reference);
        assert_eq!(reference.mem_word(0x4800), 0x51ec);
        assert_eq!(run.final_soc.mem_word(0x4800), 0x51e4);

        // Flipped after the read, the error stays private to the MPU to
        // the end of the run.
        let mut late = run.mpu_states[read as usize + 1];
        late.toggle_bit(bit);
        let (stop, _) = run.step_faulty_mpu(&mut late, read + 1, run.cycles, |_, _| {});
        assert_eq!(stop, MpuStop::End(run.cycles));
        assert_eq!(late.config.regions[2].base, 0x51ec);
    }

    /// A flipped registered violation is visible at once; a flipped
    /// pipeline bit of an idle cycle is overwritten by the next capture,
    /// and stepping stops where the state equals the golden one again.
    #[test]
    fn module_first_stepping_stops_at_a_visible_verdict_or_reconvergence() {
        let run = golden(
            "
            li r1, 50
            li r2, 0
        loop:
            addi r2, r2, 1
            bne r2, r1, loop
            halt
            ",
        );
        let c = run.cycles / 2;
        let mut mpu = run.mpu_states[c as usize];
        mpu.toggle_bit(MpuBit::Violation);
        let (stop, _) = run.step_faulty_mpu(&mut mpu, c, run.cycles, |_, _| {});
        assert_eq!(stop, MpuStop::Visible(c));

        let mut mpu = run.mpu_states[c as usize];
        mpu.toggle_bit(MpuBit::PipeAddr(4));
        let mut seen = Vec::new();
        let (stop, _) = run.step_faulty_mpu(&mut mpu, c, run.cycles, |m, n| seen.push((*m, n)));
        assert_eq!(stop, MpuStop::Reconverged(c + 1));
        assert_eq!(seen, [(run.mpu_states[c as usize + 1], 1)]);
        assert_eq!(mpu, run.mpu_states[c as usize + 1]);
    }

    /// The per-cycle stepper [`GoldenRun::step_faulty_mpu`] replaced: the
    /// same checks and steps with no idle skip, one `on_step` call per
    /// cycle. Kept as the oracle of the skip.
    fn step_per_cycle(
        run: &GoldenRun,
        mpu: &mut MpuState,
        cycle: u64,
        end: u64,
        mut on_step: impl FnMut(&MpuState),
    ) -> MpuStop {
        let mut c = cycle;
        while c < end {
            let golden = &run.mpu_states[c as usize];
            if mpu == golden {
                return MpuStop::Reconverged(c);
            }
            let stim = &run.stimulus[c as usize];
            if mpu.violation != golden.violation || (stim.cfg_read && mpu.config != golden.config) {
                return MpuStop::Visible(c);
            }
            mpu.step(stim.request, stim.cfg_write);
            on_step(mpu);
            c += 1;
        }
        MpuStop::End(c)
    }

    /// Every start cycle of `run` × every single bit flip and every flip
    /// of a bit with its neighbour in [`MpuBit::all`] order: the skipping
    /// stepper stops where the per-cycle one does, in the same state,
    /// having reported the same state for every cycle, and it skipped
    /// every idle cycle after the start and before the stop. Returns the
    /// number of cases and of skipped cycles.
    fn assert_idle_skip_is_exact(run: &GoldenRun) -> (u64, u64) {
        let bits = MpuBit::all();
        let (mut cases, mut skipped_total) = (0, 0);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for cycle in 0..run.cycles {
            for (i, &bit) in bits.iter().enumerate() {
                for pair in [None, Some(bits[(i + 1) % bits.len()])] {
                    let mut flipped = run.mpu_states[cycle as usize];
                    flipped.toggle_bit(bit);
                    if let Some(b) = pair {
                        flipped.toggle_bit(b);
                    }
                    let (mut a, mut b) = (flipped, flipped);
                    want.clear();
                    got.clear();
                    let stop = step_per_cycle(run, &mut a, cycle, run.cycles, |m| want.push(*m));
                    let (skip_stop, skipped) =
                        run.step_faulty_mpu(&mut b, cycle, run.cycles, |m, n| {
                            got.extend(std::iter::repeat_n(*m, n as usize));
                        });
                    let what = format!("{bit:?} + {pair:?} at cycle {cycle}");
                    assert_eq!(skip_stop, stop, "{what}");
                    assert_eq!(b, a, "{what}");
                    assert_eq!(got, want, "{what}");
                    let stop_at = match stop {
                        MpuStop::Reconverged(c) | MpuStop::Visible(c) | MpuStop::End(c) => c,
                    };
                    let idle_passed = (cycle + 1..stop_at).filter(|&c| run.is_idle(c)).count();
                    assert_eq!(skipped, idle_passed as u64, "{what}");
                    cases += 1;
                    skipped_total += skipped;
                }
            }
        }
        (cases, skipped_total)
    }

    /// The idle bitset is the rule its doc states, computed from the
    /// recorded stimulus cycle by cycle, and the golden MPU stands still
    /// over every idle cycle.
    fn assert_idle_rule(run: &GoldenRun) {
        assert!(!run.is_idle(0));
        for c in 1..run.cycles as usize {
            let (prev, now) = (&run.stimulus[c - 1], &run.stimulus[c]);
            let idle = prev.request.is_none()
                && !prev.viol_comb
                && now.request.is_none()
                && now.cfg_write.is_none()
                && !now.cfg_read;
            assert_eq!(run.is_idle(c as u64), idle, "cycle {c}");
            if idle && c + 1 < run.cycles as usize {
                assert_eq!(run.mpu_states[c], run.mpu_states[c + 1], "cycle {c}");
            }
        }
        assert!(!run.is_idle(run.cycles));
    }

    fn workload_golden(w: &crate::workloads::Workload) -> GoldenRun {
        GoldenRun::record(&w.program, 20_000, 32)
    }

    #[test]
    fn golden_idle_skip_equals_per_cycle_stepping_on_every_goal() {
        use crate::workloads;
        for w in [
            workloads::illegal_write(),
            workloads::illegal_read(),
            workloads::dma_exfiltration(),
            workloads::trap_escalation(),
            workloads::instruction_skip(),
        ] {
            let run = workload_golden(&w);
            assert_idle_rule(&run);
            let (cases, skipped) = assert_idle_skip_is_exact(&run);
            assert!(skipped > 0, "{}: {cases} cases skipped nothing", w.name);
        }
    }

    /// The synthetic pre-characterization run under the same oracle: twice
    /// a goal's cycles, with errors that stay private for most of them, so
    /// it runs in release builds only.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release build only: use --release")]
    fn golden_idle_skip_equals_per_cycle_stepping_on_the_synthetic_run() {
        let w = crate::workloads::synthetic_precharacterization();
        let run = GoldenRun::record(&w.program, 20_000, 64);
        assert_idle_rule(&run);
        let (_, skipped) = assert_idle_skip_is_exact(&run);
        assert!(skipped > 0);
    }

    /// The premise of settling end-of-run-private errors from the golden
    /// verdict: no goal's success predicate reads the MPU, so flipping any
    /// MPU bit of a goal's final golden system leaves its verdict as is.
    #[test]
    fn golden_goal_verdicts_ignore_the_final_mpu() {
        use crate::workloads;
        for w in [
            workloads::illegal_write(),
            workloads::illegal_read(),
            workloads::dma_exfiltration(),
            workloads::trap_escalation(),
            workloads::instruction_skip(),
        ] {
            let run = workload_golden(&w);
            assert!(run.final_soc.halted(), "{}", w.name);
            let verdict = w.goal.succeeded(&run.final_soc);
            for (i, &bit) in MpuBit::all().iter().enumerate() {
                for pair in [None, MpuBit::all().get(i + 1).copied()] {
                    let mut soc = run.final_soc.clone();
                    soc.mpu.toggle_bit(bit);
                    if let Some(b) = pair {
                        soc.mpu.toggle_bit(b);
                    }
                    assert_eq!(w.goal.succeeded(&soc), verdict, "{}: {bit:?}", w.name);
                }
            }
        }
    }

    #[test]
    fn mpu_state_trace_is_consistent_with_stimulus() {
        // Replaying the recorded stimulus through a fresh MpuState must
        // reproduce the recorded per-cycle MPU states.
        let run = golden(
            "
            li r1, 0x8100
            li r2, 0x1234
            sw r2, 0(r1)
            li r2, 20
            li r3, 0
        loop:
            addi r3, r3, 1
            sw r3, 0x4000(r0)
            bne r3, r2, loop
            halt
            ",
        );
        let mut mpu = MpuState::default();
        for c in 0..run.cycles as usize {
            assert_eq!(mpu, run.mpu_states[c], "cycle {c}");
            assert_eq!(mpu.viol_comb(), run.stimulus[c].viol_comb, "cycle {c}");
            mpu.step(run.stimulus[c].request, run.stimulus[c].cfg_write);
        }
    }
}
