//! The CPU core: a small in-order machine with privilege modes and traps.
//!
//! The core executes one instruction per cycle (loads take one extra cycle
//! for the data return). It owns no memory: executing an instruction yields
//! a [`CoreAction`] that the SoC routes through the bus and the MPU check
//! pipeline. Traps arrive asynchronously from the MPU's registered
//! `access_violation` signal, or synchronously from `ecall`.

use crate::isa::{Csr, Instr, Reg};

/// Why the core most recently trapped ([`Csr::Cause`] values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapCause {
    /// No trap has occurred.
    None,
    /// The MPU raised `access_violation`.
    MpuFault,
    /// An `ecall` instruction.
    Ecall,
}

impl TrapCause {
    /// The value stored in [`Csr::Cause`].
    pub fn code(self) -> u32 {
        match self {
            TrapCause::None => 0,
            TrapCause::MpuFault => 1,
            TrapCause::Ecall => 2,
        }
    }
}

/// The memory side-effect requested by one executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreAction {
    /// No memory access.
    None,
    /// Read a word; the data is delivered into `rd` on the next cycle.
    Read {
        /// The byte address.
        addr: u32,
        /// Destination register.
        rd: Reg,
    },
    /// Write a word.
    Write {
        /// The byte address.
        addr: u32,
        /// The value to store.
        value: u32,
    },
}

/// The architectural state of the core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Core {
    /// General registers; `regs[0]` reads as zero.
    pub regs: [u32; 16],
    /// Program counter (byte address).
    pub pc: u32,
    /// Privilege mode; resets to privileged.
    pub privileged: bool,
    /// Exception PC.
    pub epc: u32,
    /// Trap cause code.
    pub cause: u32,
    /// Trap vector.
    pub tvec: u32,
    /// Security response flag (set by the trap handler on isolation).
    pub isolated: u32,
    /// Handler scratch.
    pub scratch: u32,
    /// Whether the core has executed `halt`.
    pub halted: bool,
    /// A pending load: the destination waiting for data.
    load_wait: Option<Reg>,
}

impl Default for Core {
    fn default() -> Self {
        Self::new()
    }
}

impl Core {
    /// A core in reset state: privileged, `pc = 0`.
    pub fn new() -> Self {
        Self {
            regs: [0; 16],
            pc: 0,
            privileged: true,
            epc: 0,
            cause: 0,
            tvec: 0,
            isolated: 0,
            scratch: 0,
            halted: false,
            load_wait: None,
        }
    }

    /// Whether the core is stalled waiting for load data.
    pub fn load_pending(&self) -> bool {
        self.load_wait.is_some()
    }

    /// Deliver load data requested on a previous cycle.
    pub fn deliver_load(&mut self, value: u32) {
        if let Some(rd) = self.load_wait.take() {
            self.write_reg(rd, value);
        }
    }

    fn read_reg(&self, r: Reg) -> u32 {
        if r.0 == 0 {
            0
        } else {
            self.regs[r.index()]
        }
    }

    fn write_reg(&mut self, r: Reg, v: u32) {
        if r.0 != 0 {
            self.regs[r.index()] = v;
        }
    }

    fn csr_read(&self, csr: Csr) -> u32 {
        match csr {
            Csr::Status => u32::from(self.privileged),
            Csr::Epc => self.epc,
            Csr::Cause => self.cause,
            Csr::Tvec => self.tvec,
            Csr::Isolated => self.isolated,
            Csr::Scratch => self.scratch,
        }
    }

    fn csr_write(&mut self, csr: Csr, v: u32) {
        match csr {
            // STATUS is read-only; privilege changes via trap entry / mret.
            Csr::Status => {}
            Csr::Epc => self.epc = v,
            Csr::Cause => self.cause = v,
            Csr::Tvec => self.tvec = v,
            Csr::Isolated => self.isolated = v,
            Csr::Scratch => self.scratch = v,
        }
    }

    /// Enter the trap handler.
    ///
    /// `resume_pc` is the address `mret` will return to.
    pub fn trap(&mut self, cause: TrapCause, resume_pc: u32) {
        self.epc = resume_pc;
        self.cause = cause.code();
        self.privileged = true;
        self.pc = self.tvec;
        // A pending load is abandoned on trap entry.
        self.load_wait = None;
    }

    /// Execute the instruction word fetched at the current `pc`.
    ///
    /// Advances `pc`, updates registers, and returns the memory action the
    /// SoC must perform. Undecodable words execute as `halt` (the core has
    /// no illegal-instruction trap).
    ///
    /// # Panics
    ///
    /// Panics when called while halted or while a load is pending; the SoC
    /// step function maintains both invariants.
    pub fn execute(&mut self, word: u32) -> CoreAction {
        assert!(!self.halted, "execute on a halted core");
        assert!(self.load_wait.is_none(), "execute while load pending");
        let Ok(instr) = Instr::decode(word) else {
            self.halted = true;
            return CoreAction::None;
        };
        let mut next_pc = self.pc.wrapping_add(4);
        let mut action = CoreAction::None;
        match instr {
            Instr::Add(d, a, b) => {
                let v = self.read_reg(a).wrapping_add(self.read_reg(b));
                self.write_reg(d, v);
            }
            Instr::Sub(d, a, b) => {
                let v = self.read_reg(a).wrapping_sub(self.read_reg(b));
                self.write_reg(d, v);
            }
            Instr::And(d, a, b) => {
                let v = self.read_reg(a) & self.read_reg(b);
                self.write_reg(d, v);
            }
            Instr::Or(d, a, b) => {
                let v = self.read_reg(a) | self.read_reg(b);
                self.write_reg(d, v);
            }
            Instr::Xor(d, a, b) => {
                let v = self.read_reg(a) ^ self.read_reg(b);
                self.write_reg(d, v);
            }
            Instr::Sll(d, a, b) => {
                let v = self.read_reg(a) << (self.read_reg(b) & 31);
                self.write_reg(d, v);
            }
            Instr::Srl(d, a, b) => {
                let v = self.read_reg(a) >> (self.read_reg(b) & 31);
                self.write_reg(d, v);
            }
            Instr::Sltu(d, a, b) => {
                let v = u32::from(self.read_reg(a) < self.read_reg(b));
                self.write_reg(d, v);
            }
            Instr::Addi(d, a, i) => {
                let v = self.read_reg(a).wrapping_add(i as u32);
                self.write_reg(d, v);
            }
            Instr::Andi(d, a, i) => {
                let v = self.read_reg(a) & i as u32;
                self.write_reg(d, v);
            }
            Instr::Ori(d, a, i) => {
                let v = self.read_reg(a) | i as u32;
                self.write_reg(d, v);
            }
            Instr::Xori(d, a, i) => {
                let v = self.read_reg(a) ^ i as u32;
                self.write_reg(d, v);
            }
            Instr::Li(d, i) => self.write_reg(d, i as u32),
            Instr::Lw(d, a, i) => {
                let addr = self.read_reg(a).wrapping_add(i as u32);
                self.load_wait = Some(d);
                action = CoreAction::Read { addr, rd: d };
            }
            Instr::Sw(s, a, i) => {
                let addr = self.read_reg(a).wrapping_add(i as u32);
                action = CoreAction::Write {
                    addr,
                    value: self.read_reg(s),
                };
            }
            Instr::Beq(a, b, off) => {
                if self.read_reg(a) == self.read_reg(b) {
                    next_pc = self.pc.wrapping_add(off as u32);
                }
            }
            Instr::Bne(a, b, off) => {
                if self.read_reg(a) != self.read_reg(b) {
                    next_pc = self.pc.wrapping_add(off as u32);
                }
            }
            Instr::Bltu(a, b, off) => {
                if self.read_reg(a) < self.read_reg(b) {
                    next_pc = self.pc.wrapping_add(off as u32);
                }
            }
            Instr::Jal(d, off) => {
                self.write_reg(d, self.pc.wrapping_add(4));
                next_pc = self.pc.wrapping_add(off as u32);
            }
            Instr::Jalr(d, a, i) => {
                let target = self.read_reg(a).wrapping_add(i as u32);
                self.write_reg(d, self.pc.wrapping_add(4));
                next_pc = target;
            }
            Instr::Csrrw(d, csr, s) => {
                let old = self.csr_read(csr);
                let new = self.read_reg(s);
                // CSR writes are privileged; user-mode writes are ignored
                // (reads are allowed for simplicity).
                if self.privileged {
                    self.csr_write(csr, new);
                }
                self.write_reg(d, old);
            }
            Instr::Ecall => {
                self.pc = next_pc;
                self.trap(TrapCause::Ecall, next_pc);
                return CoreAction::None;
            }
            Instr::Mret => {
                self.privileged = false;
                next_pc = self.epc;
            }
            Instr::Halt => {
                self.halted = true;
                return CoreAction::None;
            }
            Instr::Nop => {}
        }
        self.pc = next_pc;
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(core: &mut Core, i: Instr) -> CoreAction {
        core.execute(i.encode())
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut c = Core::new();
        exec(&mut c, Instr::Li(Reg(0), 42));
        assert_eq!(c.regs[0], 0);
        exec(&mut c, Instr::Addi(Reg(1), Reg(0), 7));
        assert_eq!(c.regs[1], 7);
    }

    #[test]
    fn alu_ops() {
        let mut c = Core::new();
        exec(&mut c, Instr::Li(Reg(1), 12));
        exec(&mut c, Instr::Li(Reg(2), 5));
        exec(&mut c, Instr::Add(Reg(3), Reg(1), Reg(2)));
        assert_eq!(c.regs[3], 17);
        exec(&mut c, Instr::Sub(Reg(4), Reg(1), Reg(2)));
        assert_eq!(c.regs[4], 7);
        exec(&mut c, Instr::And(Reg(5), Reg(1), Reg(2)));
        assert_eq!(c.regs[5], 4);
        exec(&mut c, Instr::Or(Reg(6), Reg(1), Reg(2)));
        assert_eq!(c.regs[6], 13);
        exec(&mut c, Instr::Xor(Reg(7), Reg(1), Reg(2)));
        assert_eq!(c.regs[7], 9);
        exec(&mut c, Instr::Sll(Reg(8), Reg(1), Reg(2)));
        assert_eq!(c.regs[8], 12 << 5);
        exec(&mut c, Instr::Srl(Reg(9), Reg(1), Reg(2)));
        assert_eq!(c.regs[9], 0);
        exec(&mut c, Instr::Sltu(Reg(10), Reg(2), Reg(1)));
        assert_eq!(c.regs[10], 1);
    }

    #[test]
    fn branches_update_pc() {
        let mut c = Core::new();
        c.pc = 100;
        exec(&mut c, Instr::Beq(Reg(0), Reg(0), 20));
        assert_eq!(c.pc, 120);
        exec(&mut c, Instr::Bne(Reg(0), Reg(0), 20));
        assert_eq!(c.pc, 124, "not taken falls through");
        exec(&mut c, Instr::Bltu(Reg(0), Reg(0), -8));
        assert_eq!(c.pc, 128, "0 < 0 is false");
    }

    #[test]
    fn jal_and_jalr_link() {
        let mut c = Core::new();
        c.pc = 40;
        exec(&mut c, Instr::Jal(Reg(1), 100));
        assert_eq!(c.pc, 140);
        assert_eq!(c.regs[1], 44);
        exec(&mut c, Instr::Li(Reg(2), 0x200));
        exec(&mut c, Instr::Jalr(Reg(3), Reg(2), 4));
        assert_eq!(c.pc, 0x204);
        assert_eq!(c.regs[3], 148);
    }

    #[test]
    fn load_stalls_until_delivery() {
        let mut c = Core::new();
        exec(&mut c, Instr::Li(Reg(1), 0x100));
        let action = exec(&mut c, Instr::Lw(Reg(2), Reg(1), 8));
        assert_eq!(
            action,
            CoreAction::Read {
                addr: 0x108,
                rd: Reg(2)
            }
        );
        assert!(c.load_pending());
        c.deliver_load(0xdead);
        assert!(!c.load_pending());
        assert_eq!(c.regs[2], 0xdead);
    }

    #[test]
    fn store_issues_write() {
        let mut c = Core::new();
        exec(&mut c, Instr::Li(Reg(1), 0x40));
        exec(&mut c, Instr::Li(Reg(2), 99));
        let action = exec(&mut c, Instr::Sw(Reg(2), Reg(1), -4));
        assert_eq!(
            action,
            CoreAction::Write {
                addr: 0x3c,
                value: 99
            }
        );
    }

    #[test]
    fn ecall_traps_and_mret_returns_to_user() {
        let mut c = Core::new();
        c.tvec = 0x400;
        c.pc = 60;
        exec(&mut c, Instr::Ecall);
        assert_eq!(c.pc, 0x400);
        assert_eq!(c.epc, 64);
        assert_eq!(c.cause, TrapCause::Ecall.code());
        assert!(c.privileged);
        exec(&mut c, Instr::Mret);
        assert_eq!(c.pc, 64);
        assert!(!c.privileged);
    }

    #[test]
    fn async_trap_enters_handler_and_cancels_load() {
        let mut c = Core::new();
        c.tvec = 0x500;
        c.privileged = false;
        exec(&mut c, Instr::Li(Reg(1), 0x100));
        exec(&mut c, Instr::Lw(Reg(2), Reg(1), 0));
        assert!(c.load_pending());
        c.trap(TrapCause::MpuFault, c.pc);
        assert!(!c.load_pending());
        assert!(c.privileged);
        assert_eq!(c.pc, 0x500);
        assert_eq!(c.cause, TrapCause::MpuFault.code());
    }

    #[test]
    fn csr_writes_require_privilege() {
        let mut c = Core::new();
        exec(&mut c, Instr::Li(Reg(1), 0x77));
        exec(&mut c, Instr::Csrrw(Reg(0), Csr::Scratch, Reg(1)));
        assert_eq!(c.scratch, 0x77);
        // Drop to user mode; write must be ignored.
        c.privileged = false;
        exec(&mut c, Instr::Li(Reg(2), 0x11));
        exec(&mut c, Instr::Csrrw(Reg(3), Csr::Scratch, Reg(2)));
        assert_eq!(c.scratch, 0x77, "user csr write ignored");
        assert_eq!(c.regs[3], 0x77, "read still returns the old value");
    }

    #[test]
    fn status_csr_reflects_privilege_and_is_readonly() {
        let mut c = Core::new();
        exec(&mut c, Instr::Csrrw(Reg(1), Csr::Status, Reg(0)));
        assert_eq!(c.regs[1], 1);
        assert!(c.privileged, "writing STATUS must not change privilege");
    }

    #[test]
    fn halt_stops_the_core() {
        let mut c = Core::new();
        exec(&mut c, Instr::Halt);
        assert!(c.halted);
    }

    #[test]
    fn undecodable_word_halts() {
        let mut c = Core::new();
        let action = c.execute(63 << 26);
        assert_eq!(action, CoreAction::None);
        assert!(c.halted);
    }
}
