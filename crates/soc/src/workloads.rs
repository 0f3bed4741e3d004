//! Benchmark workloads: the attack scenarios and the pre-characterization
//! stimulus.
//!
//! Paper §6: "The benchmark we use ... includes illegal memory write and
//! read operations." Each attack workload configures the MPU in privileged
//! mode, drops to user mode, performs legal warm-up traffic, then attempts
//! the illegal access; the trap handler isolates the process when the MPU
//! catches it. The *attack goal* predicate decides, on a finished (possibly
//! faulty) run, whether the attacker achieved the illegal effect without
//! being isolated — the indicator variable `e` of the SSF definition.

use crate::asm::assemble;
use crate::soc::Soc;

/// Address of the user scratch buffer (inside the user region).
pub const USER_BUF: u16 = 0x4000;
/// Address of the leak buffer used by the read scenario.
pub const LEAK_ADDR: u16 = 0x4800;
/// Address of the protected word (outside every user region).
pub const SECRET_ADDR: u16 = 0x7000;
/// The secret value stored at [`SECRET_ADDR`] during privileged setup.
pub const SECRET_VALUE: u32 = 0x51ec;
/// The marker value the write scenario tries to plant at [`SECRET_ADDR`].
pub const ATTACK_VALUE: u32 = 0xbeef;
/// Address of the trap handler's diagnostic dump word (user-readable).
pub const DUMP_ADDR: u16 = 0x4c00;
/// Address of the guard variable armed by the instruction-skip scenario.
pub const GUARD_ADDR: u16 = 0x5c00;

/// What the attacker is trying to achieve (paper §3.1, scenario 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackGoal {
    /// Plant [`ATTACK_VALUE`] at the protected address without being
    /// isolated.
    IllegalWrite,
    /// Copy the protected secret into the user-readable leak buffer without
    /// being isolated.
    IllegalRead,
    /// Trick the trap handler into taking its diagnostic path on a spurious
    /// MPU fault, dumping privileged register residue into user-readable
    /// memory, without being isolated.
    PrivilegeEscalation,
    /// Make execution skip the guard-arming store so the fall-through leak
    /// runs, without being isolated.
    InstructionSkip,
}

impl AttackGoal {
    /// Evaluate the success indicator `e` on a finished run: the illegal
    /// effect happened *and* the security response never fired.
    pub fn succeeded(self, soc: &Soc) -> bool {
        let isolated = soc.core.isolated != 0;
        match self {
            AttackGoal::IllegalWrite => soc.mem_word(SECRET_ADDR) == ATTACK_VALUE && !isolated,
            AttackGoal::IllegalRead => soc.mem_word(LEAK_ADDR) == SECRET_VALUE && !isolated,
            AttackGoal::PrivilegeEscalation => soc.mem_word(DUMP_ADDR) == SECRET_VALUE && !isolated,
            AttackGoal::InstructionSkip => {
                soc.mem_word(GUARD_ADDR) == 0
                    && soc.mem_word(LEAK_ADDR) == ATTACK_VALUE
                    && !isolated
            }
        }
    }
}

/// A benchmark: program image plus the attack-goal predicate.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name used in reports.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The assembled memory image.
    pub program: Vec<u32>,
    /// The success predicate.
    pub goal: AttackGoal,
}

/// The shared privileged prologue: program the MPU (region 0 = user RWX
/// over `[0, 0x5fff]`, region 1 = user read-only over `[0x6000, 0x60ff]`),
/// plant the secret, install the handler and drop to user mode.
/// `extra_config` is spliced in before the handler installation (still in
/// privileged mode) for workloads that need additional regions.
fn prologue_with(extra_config: &str) -> String {
    format!(
        "
        ; ---------------- privileged setup ----------------
        li   r1, 0x8100
        li   r2, 0x0000
        sw   r2, 0(r1)        ; region0.base
        li   r2, 0x5fff
        sw   r2, 4(r1)        ; region0.limit
        li   r2, 0xf
        sw   r2, 8(r1)        ; region0.perms = RWX|USER
        li   r2, 0x6000
        sw   r2, 12(r1)       ; region1.base
        li   r2, 0x60ff
        sw   r2, 16(r1)       ; region1.limit
        li   r2, 0x9
        sw   r2, 20(r1)       ; region1.perms = R|USER
        li   r2, 1
        sw   r2, 0x30(r1)     ; global enable
        li   r3, {secret_addr}
        li   r4, {secret_value}
        sw   r4, 0(r3)        ; plant the protected secret
        {extra_config}
        li   r5, handler
        csrrw r0, tvec, r5
        li   r6, user_entry
        csrrw r0, epc, r6
        mret                  ; drop to user mode
        ",
        secret_addr = SECRET_ADDR,
        secret_value = SECRET_VALUE,
    )
}

fn prologue() -> String {
    prologue_with("")
}

/// The shared trap handler: isolate on MPU fault, halt on `ecall`.
const EPILOGUE: &str = "
        ecall                 ; normal end of the user program
    handler:
        csrrw r12, cause, r0
        li   r13, 1
        beq  r12, r13, fault
        halt                  ; ecall path: clean termination
    fault:
        csrrw r0, isolated, r13
        halt                  ; security response: process isolated
        ";

/// Legal warm-up traffic: `iters` iterations of mixed ALU, load and store
/// activity inside the user regions, to give the attack a realistic window
/// of preceding cycles and the pre-characterization genuine toggling.
fn warmup(iters: u32) -> String {
    format!(
        "
        li   r2, 0
        li   r4, {iters}
    warm:
        addi r2, r2, 1
        sll  r7, r2, r2
        lw   r8, {user_buf}(r0)
        add  r8, r8, r7
        sw   r8, {user_buf}(r0)
        lw   r9, 0x6000(r0)   ; legal read-only region access
        bne  r2, r4, warm
        ",
        user_buf = USER_BUF,
    )
}

/// The illegal-memory-write benchmark (paper §6, "Memory Write").
pub fn illegal_write() -> Workload {
    let source = format!(
        "{prologue}
    user_entry:
        {warm}
        ; ---------------- the attack ----------------
        li   r10, {secret_addr}
        li   r11, {attack_value}
        sw   r11, 0(r10)      ; illegal write: caught at T_t in the golden run
        li   r2, 0
        li   r4, 8
    post:
        addi r2, r2, 1
        bne  r2, r4, post
        {epilogue}",
        prologue = prologue(),
        warm = warmup(24),
        secret_addr = SECRET_ADDR,
        attack_value = ATTACK_VALUE,
        epilogue = EPILOGUE,
    );
    Workload {
        name: "memory_write",
        description: "user-mode process attempts an illegal write to protected memory",
        program: assemble(&source).expect("workload must assemble").words,
        goal: AttackGoal::IllegalWrite,
    }
}

/// The illegal-memory-read benchmark (paper §6, "Memory Read").
pub fn illegal_read() -> Workload {
    let source = format!(
        "{prologue}
    user_entry:
        {warm}
        ; ---------------- the attack ----------------
        li   r10, {secret_addr}
        lw   r11, 0(r10)      ; illegal read: blocked (returns 0) in golden
        sw   r11, {leak_addr}(r0) ; exfiltrate into the user buffer
        li   r2, 0
        li   r4, 8
    post:
        addi r2, r2, 1
        bne  r2, r4, post
        {epilogue}",
        prologue = prologue(),
        warm = warmup(20),
        secret_addr = SECRET_ADDR,
        leak_addr = LEAK_ADDR,
        epilogue = EPILOGUE,
    );
    Workload {
        name: "memory_read",
        description: "user-mode process attempts to read and exfiltrate a protected secret",
        program: assemble(&source).expect("workload must assemble").words,
        goal: AttackGoal::IllegalRead,
    }
}

/// The DMA-exfiltration benchmark: the peripheral path of the paper's
/// Figure 1.
///
/// The user-mode process cannot read the secret itself, so it programs the
/// DMA engine to copy it into the user buffer. The DMA is an untrusted bus
/// master: its read of the protected word is checked by the MPU exactly
/// like a core access, the violation traps the (user-mode) core, and the
/// handler isolates the process. The attack goal is the same as the read
/// scenario's: the secret value present at [`LEAK_ADDR`] with no isolation.
pub fn dma_exfiltration() -> Workload {
    // Region 2 deliberately grants user access to the DMA register window:
    // the system designer lets user processes use the DMA engine and relies
    // on the MPU to police the engine's *own* memory traffic — the exact
    // peripheral-check scenario of the paper's Figure 1.
    let extra = "
        li   r2, 0x8000
        sw   r2, 24(r1)       ; region2.base  = DMA registers
        li   r2, 0x800f
        sw   r2, 28(r1)       ; region2.limit
        li   r2, 0xb
        sw   r2, 32(r1)       ; region2.perms = RW|USER
    ";
    let source = format!(
        "{prologue}
    user_entry:
        {warm}
        ; ---------------- the attack ----------------
        li   r3, 0x8000
        li   r4, {secret_addr}
        sw   r4, 0(r3)        ; DMA.src = the protected secret
        li   r4, {leak_addr}
        sw   r4, 4(r3)        ; DMA.dst = the user leak buffer
        li   r4, 1
        sw   r4, 8(r3)        ; DMA.len = 1 word
        li   r4, 1
        sw   r4, 12(r3)       ; start: the DMA (an untrusted master) reads
                              ; the secret; the MPU checks that access
    spin:
        lw   r5, 12(r3)       ; poll DMA busy (legal via region 2)
        bne  r5, r0, spin
        {epilogue}",
        prologue = prologue_with(extra),
        warm = warmup(20),
        secret_addr = SECRET_ADDR,
        leak_addr = LEAK_ADDR,
        epilogue = EPILOGUE,
    );
    Workload {
        name: "dma_exfiltration",
        description: "user-mode process programs the DMA engine to exfiltrate the secret",
        program: assemble(&source).expect("workload must assemble").words,
        goal: AttackGoal::IllegalRead,
    }
}

/// The trap-handler privilege-escalation benchmark.
///
/// The privileged prologue handles the secret and sloppily leaves it in
/// `r15` when dropping to user mode. The trap handler classifies MPU faults
/// by their trap PC: faults inside the window of the program's one
/// *deliberate* probe are the expected violation and isolate the process;
/// faults anywhere else "cannot happen", so the handler takes a diagnostic
/// path that dumps register state — including the privileged residue — into
/// user-readable memory and skips isolation. A fault attack that corrupts
/// the MPU configuration makes *legal* warm-up traffic violate, the trap
/// fires outside the expected window, and the corrupted-state handler leaks
/// the secret: privilege escalation via corrupted trap-handler state.
pub fn trap_escalation() -> Workload {
    let extra = "
        lw   r15, 0(r3)       ; privileged residue: secret left in a register
    ";
    let source = format!(
        "{prologue}
    user_entry:
        {warm}
        ; ---------------- the attack ----------------
        li   r10, 0xdead
    probe_lo:
        sw   r10, 0x6000(r0)  ; deliberate illegal write: anchors T_t
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
    probe_hi:
        ecall                 ; normal end of the user program
    handler:
        csrrw r12, cause, r0
        li   r13, 2
        beq  r12, r13, done   ; ecall path: clean termination
        csrrw r14, epc, r0    ; MPU fault: where did it fire?
        li   r13, probe_lo
        bltu r14, r13, diag   ; before the probe window: unexpected
        li   r13, probe_hi
        bltu r14, r13, expected
    diag:
        sw   r15, {dump_addr}(r0) ; diagnostic dump leaks the residue
        nop                   ; drain the MPU pipeline before freezing
        nop
        halt
    expected:
        li   r13, 1
        csrrw r0, isolated, r13
        halt                  ; security response: process isolated
    done:
        halt
        ",
        prologue = prologue_with(extra),
        warm = warmup(24),
        dump_addr = DUMP_ADDR,
    );
    Workload {
        name: "trap_escalation",
        description: "spurious MPU fault drives the trap handler's diagnostic path, \
                      leaking privileged register residue",
        program: assemble(&source).expect("workload must assemble").words,
        goal: AttackGoal::PrivilegeEscalation,
    }
}

/// The instruction-skip benchmark.
///
/// The user program arms a guard word, performs one deliberate illegal
/// probe (anchoring `T_t`; the fault-tolerant handler resumes past it),
/// re-reads the guard and only falls through to a privileged-tail leak
/// store when the guard is *not* armed. A fault that corrupts the MPU
/// configuration (e.g. shrinks region 0 below the guard address while
/// leaving the leak buffer accessible) silently blocks the arming store —
/// the classic instruction-skip effect — and the fall-through leak
/// executes.
pub fn instruction_skip() -> Workload {
    let source = format!(
        "{prologue}
    user_entry:
        {warm}
        ; ---------------- the critical sequence ----------------
        li   r3, 1
        sw   r3, {guard_addr}(r0) ; arm the guard: proves the check ran
        sw   r3, 0x6000(r0)   ; deliberate illegal write: anchors T_t
        nop
        nop
        nop
        nop
        li   r4, 0
        lw   r4, {guard_addr}(r0) ; re-read (a blocked load leaves 0)
        bne  r4, r0, safe     ; guard armed: skip the leaking tail
        li   r5, {attack_value}
        sw   r5, {leak_addr}(r0)  ; reachable only if the arm was skipped
    safe:
        ecall
    handler:
        csrrw r12, cause, r0
        li   r13, 1
        beq  r12, r13, tolerate
        halt                  ; ecall path: clean termination
    tolerate:
        mret                  ; fault-tolerant policy: resume past the fault
        ",
        prologue = prologue(),
        warm = warmup(20),
        guard_addr = GUARD_ADDR,
        attack_value = ATTACK_VALUE,
        leak_addr = LEAK_ADDR,
    );
    Workload {
        name: "instruction_skip",
        description: "fault-skipped guard store lets the fall-through leak execute",
        program: assemble(&source).expect("workload must assemble").words,
        goal: AttackGoal::InstructionSkip,
    }
}

/// One user-phase address sweep: legal stores/loads across the user buffer
/// plus sporadic illegal pokes at the protected area.
fn sweep_phase(label: &str, iters: u32) -> String {
    format!(
        "
    {label}:
        li   r13, {user_buf}
        li   r15, {secret_addr}
        li   r2, 0
        li   r4, {iters}
        li   r12, 4
    {label}_loop:
        addi r2, r2, 1
        sll  r8, r2, r12
        andi r8, r8, 0x7f0    ; sweep address bits 4..10
        add  r9, r8, r13
        sw   r2, 0(r9)
        lw   r10, 0(r9)
        andi r11, r2, 7
        bne  r11, r0, {label}_skip
        add  r14, r8, r15
        sw   r2, 0(r14)       ; sporadic illegal poke (blocked, survivable)
    {label}_skip:
        bne  r2, r4, {label}_loop
        ecall                 ; hand control back for reconfiguration
        ",
        user_buf = USER_BUF,
        secret_addr = SECRET_ADDR,
    )
}

/// The synthetic pre-characterization stimulus.
///
/// Three user phases of address-sweeping traffic with sporadic (survivable)
/// violations, separated by privileged **reconfiguration** of the MPU —
/// phase 2 shrinks region 0 so the sweep itself violates (a violation
/// storm), phase 3 disables the MPU (quiet). The reconfigurations make the
/// *configuration registers themselves switch*, giving the
/// pre-characterization correlation signal for the persistent state, not
/// just the pipeline. A DMA transfer whose destination straddles a
/// read-only region exercises the peripheral path too. The trap handler
/// resumes on MPU faults instead of isolating so the run keeps producing
/// activity.
pub fn synthetic_precharacterization() -> Workload {
    let source = format!(
        "
        ; configuration A: region0 user RWX [0, 0x5fff], region1 user R
        li   r1, 0x8100
        li   r2, 0x0000
        sw   r2, 0(r1)
        li   r2, 0x5fff
        sw   r2, 4(r1)
        li   r2, 0xf
        sw   r2, 8(r1)
        li   r2, 0x6000
        sw   r2, 12(r1)
        li   r2, 0x60ff
        sw   r2, 16(r1)
        li   r2, 0x9
        sw   r2, 20(r1)
        li   r2, 1
        sw   r2, 0x30(r1)
        li   r5, handler
        csrrw r0, tvec, r5
        ; DMA: copy 8 words from 0x4000 to 0x60f0 (writes past 0x60ff and
        ; into the read-only region are blocked -> peripheral violations)
        li   r3, 0x8000
        li   r4, 0x4000
        sw   r4, 0(r3)
        li   r4, 0x60f0
        sw   r4, 4(r3)
        li   r4, 8
        sw   r4, 8(r3)
        li   r4, 1
        sw   r4, 12(r3)
        li   r6, phase1
        csrrw r0, epc, r6
        mret
    {phase1}
    {phase2}
    {phase3}
    handler:
        csrrw r12, cause, r0
        li   r13, 2
        beq  r12, r13, ecall_path
        mret                  ; MPU fault: survive and continue
    ecall_path:
        csrrw r14, scratch, r0
        beq  r14, r0, reconfig_b
        li   r13, 1
        beq  r14, r13, reconfig_c
        halt                  ; third ecall: done
    reconfig_b:
        ; configuration B: shrink region0 so the sweep violates, open
        ; region1 for writes
        li   r1, 0x8100
        li   r2, 0x3fff
        sw   r2, 4(r1)
        li   r2, 0xf
        sw   r2, 20(r1)
        li   r2, 1
        csrrw r0, scratch, r2
        li   r2, phase2
        csrrw r0, epc, r2
        mret
    reconfig_c:
        ; configuration C: restore region0, disable the MPU (quiet phase)
        li   r1, 0x8100
        li   r2, 0x5fff
        sw   r2, 4(r1)
        li   r2, 0
        sw   r2, 0x30(r1)
        li   r2, 2
        csrrw r0, scratch, r2
        li   r2, phase3
        csrrw r0, epc, r2
        mret
        ",
        phase1 = sweep_phase("phase1", 16),
        phase2 = sweep_phase("phase2", 14),
        phase3 = sweep_phase("phase3", 12),
    );
    Workload {
        name: "precharacterization",
        description: "synthetic stimulus with reconfiguration phases and mixed core/DMA traffic",
        program: assemble(&source).expect("workload must assemble").words,
        // Not an attack scenario; the goal is unused but IllegalWrite keeps
        // the type simple.
        goal: AttackGoal::IllegalWrite,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::GoldenRun;

    #[test]
    fn write_workload_golden_run_catches_the_attack() {
        let w = illegal_write();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        assert!(run.final_soc.halted(), "must reach halt");
        let tt = run.first_violation_cycle().expect("violation expected");
        assert!(tt > 100, "warm-up must precede the attack (T_t = {tt})");
        assert_eq!(run.final_soc.core.isolated, 1);
        assert_eq!(run.final_soc.mem_word(SECRET_ADDR), SECRET_VALUE);
        assert!(
            !w.goal.succeeded(&run.final_soc),
            "the golden run is a failed attack"
        );
    }

    #[test]
    fn read_workload_golden_run_catches_the_attack() {
        let w = illegal_read();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        assert!(run.final_soc.halted());
        assert!(run.first_violation_cycle().is_some());
        assert_eq!(run.final_soc.core.isolated, 1);
        assert_ne!(run.final_soc.mem_word(LEAK_ADDR), SECRET_VALUE);
        assert!(!w.goal.succeeded(&run.final_soc));
    }

    #[test]
    fn write_goal_detects_success() {
        let w = illegal_write();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        // Forge a successful outcome to validate the predicate.
        let mut forged = run.final_soc.clone();
        forged.set_mem_word(SECRET_ADDR, ATTACK_VALUE);
        forged.core.isolated = 0;
        assert!(w.goal.succeeded(&forged));
        forged.core.isolated = 1;
        assert!(!w.goal.succeeded(&forged), "isolation defeats the attack");
    }

    #[test]
    fn read_goal_detects_success() {
        let w = illegal_read();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        let mut forged = run.final_soc.clone();
        forged.set_mem_word(LEAK_ADDR, SECRET_VALUE);
        forged.core.isolated = 0;
        assert!(w.goal.succeeded(&forged));
    }

    #[test]
    fn precharacterization_run_has_rich_activity() {
        let w = synthetic_precharacterization();
        let run = GoldenRun::record(&w.program, 20_000, 64);
        assert!(run.final_soc.halted(), "must terminate");
        // Both masters must have produced traffic, including violations.
        assert!(run.violation_cycles.len() >= 5, "want repeated violations");
        let dma_accesses = run
            .access_trace
            .iter()
            .filter(|a| a.master == crate::soc::Master::Dma)
            .count();
        assert!(
            dma_accesses >= 8,
            "DMA traffic expected, got {dma_accesses}"
        );
        let blocked_dma = run
            .access_trace
            .iter()
            .filter(|a| a.master == crate::soc::Master::Dma && !a.allowed)
            .count();
        assert!(blocked_dma > 0, "some DMA writes must be blocked");
        // The core survived its violations (handler resumes).
        assert!(run.cycles > 200);
    }

    #[test]
    fn dma_workload_golden_run_catches_the_peripheral_attack() {
        let w = dma_exfiltration();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        assert!(run.final_soc.halted(), "must reach halt");
        let tt = run.first_violation_cycle().expect("violation expected");
        assert!(tt > 100, "warm-up must precede the attack (T_t = {tt})");
        // The violating access comes from the DMA master, not the core.
        let blocked: Vec<_> = run.access_trace.iter().filter(|a| !a.allowed).collect();
        assert_eq!(blocked.len(), 1);
        assert_eq!(blocked[0].master, crate::soc::Master::Dma);
        assert_eq!(blocked[0].req.addr, SECRET_ADDR);
        assert_eq!(run.final_soc.core.isolated, 1);
        assert_ne!(run.final_soc.mem_word(LEAK_ADDR), SECRET_VALUE);
        assert!(!w.goal.succeeded(&run.final_soc));
    }

    #[test]
    fn dma_attack_succeeds_when_the_responding_signal_is_suppressed() {
        // Disable the MPU mid-run: the DMA read passes and the secret lands
        // in the user buffer with no isolation.
        let w = dma_exfiltration();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        let tt = run.first_violation_cycle().unwrap();
        let te = tt - 5;
        let mut soc = run.nearest_checkpoint(te).clone();
        while soc.cycle < te {
            soc.step();
        }
        soc.step();
        soc.mpu.config.enable = false; // injected fault
        soc.run_until_halt(run.cycles + 500);
        assert_eq!(soc.mem_word(LEAK_ADDR), SECRET_VALUE);
        assert_eq!(soc.core.isolated, 0);
        assert!(w.goal.succeeded(&soc));
    }

    #[test]
    fn trap_escalation_golden_run_isolates_the_probe() {
        let w = trap_escalation();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        assert!(run.final_soc.halted(), "must reach halt");
        let tt = run.first_violation_cycle().expect("violation expected");
        assert!(tt > 100, "warm-up must precede the attack (T_t = {tt})");
        // The deliberate probe traps inside the expected window: the
        // handler isolates instead of taking the diagnostic path.
        assert_eq!(run.final_soc.core.isolated, 1);
        assert_ne!(run.final_soc.mem_word(DUMP_ADDR), SECRET_VALUE);
        assert!(!w.goal.succeeded(&run.final_soc));
    }

    #[test]
    fn trap_escalation_goal_detects_success() {
        let w = trap_escalation();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        let mut forged = run.final_soc.clone();
        forged.set_mem_word(DUMP_ADDR, SECRET_VALUE);
        forged.core.isolated = 0;
        assert!(w.goal.succeeded(&forged));
        forged.core.isolated = 1;
        assert!(!w.goal.succeeded(&forged), "isolation defeats the attack");
    }

    #[test]
    fn trap_escalation_succeeds_on_a_spurious_violation() {
        // Corrupt the MPU configuration during the warm-up: legal user
        // traffic now violates, the trap fires outside the probe window and
        // the handler's diagnostic path leaks the privileged residue.
        let w = trap_escalation();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        let tt = run.first_violation_cycle().unwrap();
        let te = tt - 60; // still inside the warm-up loop
        let mut soc = run.nearest_checkpoint(te).clone();
        while soc.cycle < te {
            soc.step();
        }
        soc.step();
        soc.mpu.config.regions[0].limit = 0x3fff; // injected fault
        soc.run_until_halt(run.cycles + 500);
        assert_eq!(soc.mem_word(DUMP_ADDR), SECRET_VALUE);
        assert_eq!(soc.core.isolated, 0);
        assert!(w.goal.succeeded(&soc));
    }

    #[test]
    fn instruction_skip_golden_run_arms_the_guard() {
        let w = instruction_skip();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        assert!(run.final_soc.halted(), "must reach halt");
        let tt = run.first_violation_cycle().expect("violation expected");
        assert!(tt > 100, "warm-up must precede the attack (T_t = {tt})");
        assert_eq!(run.final_soc.mem_word(GUARD_ADDR), 1, "guard armed");
        assert_ne!(run.final_soc.mem_word(LEAK_ADDR), ATTACK_VALUE);
        assert!(!w.goal.succeeded(&run.final_soc));
    }

    #[test]
    fn instruction_skip_goal_detects_success() {
        let w = instruction_skip();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        let mut forged = run.final_soc.clone();
        forged.set_mem_word(GUARD_ADDR, 0);
        forged.set_mem_word(LEAK_ADDR, ATTACK_VALUE);
        forged.core.isolated = 0;
        assert!(w.goal.succeeded(&forged));
        forged.set_mem_word(GUARD_ADDR, 1);
        assert!(
            !w.goal.succeeded(&forged),
            "an armed guard defeats the skip"
        );
    }

    #[test]
    fn instruction_skip_succeeds_when_the_guard_store_is_blocked() {
        // Shrink region 0 below the guard address (but above the leak
        // buffer) just before the critical sequence: the arming store is
        // silently skipped and the fall-through leak executes.
        let w = instruction_skip();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        let tt = run.first_violation_cycle().unwrap();
        let te = tt - 8;
        let mut soc = run.nearest_checkpoint(te).clone();
        while soc.cycle < te {
            soc.step();
        }
        soc.step();
        soc.mpu.config.regions[0].limit = 0x4fff; // injected fault
        soc.run_until_halt(run.cycles + 500);
        assert_eq!(soc.mem_word(GUARD_ADDR), 0, "arming store was blocked");
        assert_eq!(soc.mem_word(LEAK_ADDR), ATTACK_VALUE);
        assert_eq!(soc.core.isolated, 0);
        assert!(w.goal.succeeded(&soc));
    }

    #[test]
    fn write_and_read_goals_require_no_isolation() {
        let w = illegal_write();
        let run = GoldenRun::record(&w.program, 5_000, 32);
        let mut forged = run.final_soc.clone();
        forged.set_mem_word(SECRET_ADDR, ATTACK_VALUE);
        forged.set_mem_word(LEAK_ADDR, SECRET_VALUE);
        forged.core.isolated = 1;
        assert!(!AttackGoal::IllegalWrite.succeeded(&forged));
        assert!(!AttackGoal::IllegalRead.succeeded(&forged));
        forged.core.isolated = 0;
        assert!(AttackGoal::IllegalWrite.succeeded(&forged));
        assert!(AttackGoal::IllegalRead.succeeded(&forged));
    }

    #[test]
    fn attack_cycle_is_stable_across_recordings() {
        let w = illegal_write();
        let a = GoldenRun::record(&w.program, 5_000, 32);
        let b = GoldenRun::record(&w.program, 5_000, 32);
        assert_eq!(a.first_violation_cycle(), b.first_violation_cycle());
        assert_eq!(a.cycles, b.cycles);
    }
}
