//! Instruction set of the `xlmc` microcontroller core.
//!
//! A deliberately small 32-bit RISC ISA: 16 general registers (`r0` is
//! hardwired to zero), fixed 32-bit instruction words, 18-bit signed
//! immediates. It exists to drive realistic workloads through the memory
//! system so the MPU sees genuine traffic; it is not meant to be a complete
//! application ISA.
//!
//! # Encoding
//!
//! ```text
//! [31:26] opcode
//! [25:22] rd   (or rs1 for branches/stores)
//! [21:18] rs1  (or rs2 for branches/stores)
//! [17:0]  imm18 (sign-extended) -- R-type ops use [17:14] as rs2
//! ```

use std::fmt;

/// A general-purpose register index (`r0`..`r15`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// The always-zero register.
    pub const ZERO: Reg = Reg(0);

    /// Index as usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Control and status registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Csr {
    /// Machine status (bit 0: privileged mode).
    Status,
    /// Exception PC: return address for `Mret`.
    Epc,
    /// Trap cause (see [`crate::core::TrapCause`]).
    Cause,
    /// Trap vector: the handler address.
    Tvec,
    /// Security response flag: set by the handler when it isolates the
    /// offending process. The attack-outcome checks read this.
    Isolated,
    /// Scratch register for handler use.
    Scratch,
}

impl Csr {
    /// Numeric CSR id used in the encoding.
    pub fn id(self) -> u8 {
        match self {
            Csr::Status => 0,
            Csr::Epc => 1,
            Csr::Cause => 2,
            Csr::Tvec => 3,
            Csr::Isolated => 4,
            Csr::Scratch => 5,
        }
    }

    /// Decode a CSR id.
    pub fn from_id(id: u8) -> Option<Csr> {
        Some(match id {
            0 => Csr::Status,
            1 => Csr::Epc,
            2 => Csr::Cause,
            3 => Csr::Tvec,
            4 => Csr::Isolated,
            5 => Csr::Scratch,
            _ => return None,
        })
    }
}

/// A decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `rd = rs1 + rs2`
    Add(Reg, Reg, Reg),
    /// `rd = rs1 - rs2`
    Sub(Reg, Reg, Reg),
    /// `rd = rs1 & rs2`
    And(Reg, Reg, Reg),
    /// `rd = rs1 | rs2`
    Or(Reg, Reg, Reg),
    /// `rd = rs1 ^ rs2`
    Xor(Reg, Reg, Reg),
    /// `rd = rs1 << (rs2 & 31)`
    Sll(Reg, Reg, Reg),
    /// `rd = rs1 >> (rs2 & 31)` (logical)
    Srl(Reg, Reg, Reg),
    /// `rd = (rs1 < rs2) ? 1 : 0` (unsigned)
    Sltu(Reg, Reg, Reg),
    /// `rd = rs1 + imm`
    Addi(Reg, Reg, i32),
    /// `rd = rs1 & imm`
    Andi(Reg, Reg, i32),
    /// `rd = rs1 | imm`
    Ori(Reg, Reg, i32),
    /// `rd = rs1 ^ imm`
    Xori(Reg, Reg, i32),
    /// `rd = imm` (load immediate; sign-extended 18-bit)
    Li(Reg, i32),
    /// `rd = mem[rs1 + imm]` (word)
    Lw(Reg, Reg, i32),
    /// `mem[rs1 + imm] = rs2` (word); fields `(rs2, rs1, imm)`
    Sw(Reg, Reg, i32),
    /// Branch if equal: `(rs1, rs2, byte_offset)`
    Beq(Reg, Reg, i32),
    /// Branch if not equal.
    Bne(Reg, Reg, i32),
    /// Branch if unsigned less-than.
    Bltu(Reg, Reg, i32),
    /// `rd = pc + 4; pc += imm`
    Jal(Reg, i32),
    /// `rd = pc + 4; pc = rs1 + imm`
    Jalr(Reg, Reg, i32),
    /// Read CSR into `rd`, then write `rs1` into the CSR: `(rd, csr, rs1)`.
    Csrrw(Reg, Csr, Reg),
    /// Environment call: trap to the handler with [`Csr::Cause`] = ecall.
    Ecall,
    /// Return from trap: clears privilege, `pc = EPC`.
    Mret,
    /// Stop the core.
    Halt,
    /// No operation.
    Nop,
}

const OP_ADD: u32 = 1;
const OP_SUB: u32 = 2;
const OP_AND: u32 = 3;
const OP_OR: u32 = 4;
const OP_XOR: u32 = 5;
const OP_SLL: u32 = 6;
const OP_SRL: u32 = 7;
const OP_SLTU: u32 = 8;
const OP_ADDI: u32 = 9;
const OP_ANDI: u32 = 10;
const OP_ORI: u32 = 11;
const OP_XORI: u32 = 12;
const OP_LI: u32 = 13;
const OP_LW: u32 = 14;
const OP_SW: u32 = 15;
const OP_BEQ: u32 = 16;
const OP_BNE: u32 = 17;
const OP_BLTU: u32 = 18;
const OP_JAL: u32 = 19;
const OP_JALR: u32 = 20;
const OP_CSRRW: u32 = 21;
const OP_ECALL: u32 = 22;
const OP_MRET: u32 = 23;
const OP_HALT: u32 = 24;
const OP_NOP: u32 = 0;

const IMM_BITS: u32 = 18;
const IMM_MASK: u32 = (1 << IMM_BITS) - 1;

/// Errors from instruction decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode field is not a known instruction.
    UnknownOpcode(u32),
    /// The CSR id field does not name a CSR.
    UnknownCsr(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode {op}"),
            DecodeError::UnknownCsr(id) => write!(f, "unknown csr id {id}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn sext18(raw: u32) -> i32 {
    let v = raw & IMM_MASK;
    if v & (1 << (IMM_BITS - 1)) != 0 {
        (v | !IMM_MASK) as i32
    } else {
        v as i32
    }
}

/// The valid range of 18-bit signed immediates.
pub fn imm_in_range(imm: i32) -> bool {
    (-(1 << (IMM_BITS - 1))..(1 << (IMM_BITS - 1))).contains(&imm)
}

impl Instr {
    /// Encode to a 32-bit instruction word.
    ///
    /// # Panics
    ///
    /// Panics when an immediate is outside the 18-bit signed range; the
    /// assembler validates immediates before encoding.
    pub fn encode(self) -> u32 {
        fn word(op: u32, a: Reg, b: Reg, imm: i32) -> u32 {
            assert!(imm_in_range(imm), "immediate {imm} out of range");
            op << 26
                | u32::from(a.0 & 0xf) << 22
                | u32::from(b.0 & 0xf) << 18
                | (imm as u32 & IMM_MASK)
        }
        fn rword(op: u32, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
            op << 26
                | u32::from(rd.0 & 0xf) << 22
                | u32::from(rs1.0 & 0xf) << 18
                | u32::from(rs2.0 & 0xf) << 14
        }
        match self {
            Instr::Add(d, a, b) => rword(OP_ADD, d, a, b),
            Instr::Sub(d, a, b) => rword(OP_SUB, d, a, b),
            Instr::And(d, a, b) => rword(OP_AND, d, a, b),
            Instr::Or(d, a, b) => rword(OP_OR, d, a, b),
            Instr::Xor(d, a, b) => rword(OP_XOR, d, a, b),
            Instr::Sll(d, a, b) => rword(OP_SLL, d, a, b),
            Instr::Srl(d, a, b) => rword(OP_SRL, d, a, b),
            Instr::Sltu(d, a, b) => rword(OP_SLTU, d, a, b),
            Instr::Addi(d, a, i) => word(OP_ADDI, d, a, i),
            Instr::Andi(d, a, i) => word(OP_ANDI, d, a, i),
            Instr::Ori(d, a, i) => word(OP_ORI, d, a, i),
            Instr::Xori(d, a, i) => word(OP_XORI, d, a, i),
            Instr::Li(d, i) => word(OP_LI, d, Reg::ZERO, i),
            Instr::Lw(d, a, i) => word(OP_LW, d, a, i),
            Instr::Sw(s, a, i) => word(OP_SW, s, a, i),
            Instr::Beq(a, b, i) => word(OP_BEQ, a, b, i),
            Instr::Bne(a, b, i) => word(OP_BNE, a, b, i),
            Instr::Bltu(a, b, i) => word(OP_BLTU, a, b, i),
            Instr::Jal(d, i) => word(OP_JAL, d, Reg::ZERO, i),
            Instr::Jalr(d, a, i) => word(OP_JALR, d, a, i),
            Instr::Csrrw(d, csr, s) => rword(OP_CSRRW, d, s, Reg(csr.id())),
            Instr::Ecall => OP_ECALL << 26,
            Instr::Mret => OP_MRET << 26,
            Instr::Halt => OP_HALT << 26,
            Instr::Nop => OP_NOP << 26,
        }
    }

    /// Decode a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on unknown opcodes or CSR ids.
    pub fn decode(w: u32) -> Result<Instr, DecodeError> {
        let op = w >> 26;
        let ra = Reg((w >> 22 & 0xf) as u8);
        let rb = Reg((w >> 18 & 0xf) as u8);
        let rc = Reg((w >> 14 & 0xf) as u8);
        let imm = sext18(w);
        Ok(match op {
            OP_ADD => Instr::Add(ra, rb, rc),
            OP_SUB => Instr::Sub(ra, rb, rc),
            OP_AND => Instr::And(ra, rb, rc),
            OP_OR => Instr::Or(ra, rb, rc),
            OP_XOR => Instr::Xor(ra, rb, rc),
            OP_SLL => Instr::Sll(ra, rb, rc),
            OP_SRL => Instr::Srl(ra, rb, rc),
            OP_SLTU => Instr::Sltu(ra, rb, rc),
            OP_ADDI => Instr::Addi(ra, rb, imm),
            OP_ANDI => Instr::Andi(ra, rb, imm),
            OP_ORI => Instr::Ori(ra, rb, imm),
            OP_XORI => Instr::Xori(ra, rb, imm),
            OP_LI => Instr::Li(ra, imm),
            OP_LW => Instr::Lw(ra, rb, imm),
            OP_SW => Instr::Sw(ra, rb, imm),
            OP_BEQ => Instr::Beq(ra, rb, imm),
            OP_BNE => Instr::Bne(ra, rb, imm),
            OP_BLTU => Instr::Bltu(ra, rb, imm),
            OP_JAL => Instr::Jal(ra, imm),
            OP_JALR => Instr::Jalr(ra, rb, imm),
            OP_CSRRW => {
                let csr = Csr::from_id(rc.0).ok_or(DecodeError::UnknownCsr(rc.0))?;
                Instr::Csrrw(ra, csr, rb)
            }
            OP_ECALL => Instr::Ecall,
            OP_MRET => Instr::Mret,
            OP_HALT => Instr::Halt,
            OP_NOP => Instr::Nop,
            other => return Err(DecodeError::UnknownOpcode(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(i: Instr) {
        let w = i.encode();
        assert_eq!(Instr::decode(w), Ok(i), "word {w:#010x}");
    }

    #[test]
    fn all_instruction_forms_roundtrip() {
        let r = |i| Reg(i);
        for i in [
            Instr::Add(r(1), r(2), r(3)),
            Instr::Sub(r(15), r(0), r(7)),
            Instr::And(r(4), r(4), r(4)),
            Instr::Or(r(1), r(9), r(10)),
            Instr::Xor(r(2), r(3), r(5)),
            Instr::Sll(r(6), r(7), r(8)),
            Instr::Srl(r(9), r(10), r(11)),
            Instr::Sltu(r(12), r(13), r(14)),
            Instr::Addi(r(1), r(2), -4),
            Instr::Andi(r(1), r(2), 0xff),
            Instr::Ori(r(1), r(2), 0x1ff),
            Instr::Xori(r(1), r(2), 1),
            Instr::Li(r(5), -131072),
            Instr::Li(r(5), 131071),
            Instr::Lw(r(3), r(4), 16),
            Instr::Sw(r(3), r(4), -16),
            Instr::Beq(r(1), r(2), -8),
            Instr::Bne(r(1), r(2), 8),
            Instr::Bltu(r(1), r(2), 100),
            Instr::Jal(r(1), 4096),
            Instr::Jalr(r(1), r(2), 0),
            Instr::Csrrw(r(1), Csr::Tvec, r(2)),
            Instr::Csrrw(r(0), Csr::Isolated, r(3)),
            Instr::Ecall,
            Instr::Mret,
            Instr::Halt,
            Instr::Nop,
        ] {
            roundtrip(i);
        }
    }

    #[test]
    fn sign_extension_is_correct() {
        assert_eq!(sext18(0x3ffff), -1);
        assert_eq!(sext18(0x20000), -131072);
        assert_eq!(sext18(0x1ffff), 131071);
        assert_eq!(sext18(0), 0);
    }

    #[test]
    fn imm_range_check() {
        assert!(imm_in_range(0));
        assert!(imm_in_range(131071));
        assert!(imm_in_range(-131072));
        assert!(!imm_in_range(131072));
        assert!(!imm_in_range(-131073));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn encode_rejects_oversized_imm() {
        let _ = Instr::Li(Reg(1), 1 << 20).encode();
    }

    #[test]
    fn unknown_opcode_is_an_error() {
        assert_eq!(Instr::decode(63 << 26), Err(DecodeError::UnknownOpcode(63)));
    }

    #[test]
    fn unknown_csr_is_an_error() {
        // CSRRW with csr field 15.
        let w = OP_CSRRW << 26 | 15 << 14;
        assert_eq!(Instr::decode(w), Err(DecodeError::UnknownCsr(15)));
    }

    #[test]
    fn csr_ids_roundtrip() {
        for csr in [
            Csr::Status,
            Csr::Epc,
            Csr::Cause,
            Csr::Tvec,
            Csr::Isolated,
            Csr::Scratch,
        ] {
            assert_eq!(Csr::from_id(csr.id()), Some(csr));
        }
        assert_eq!(Csr::from_id(9), None);
    }
}
