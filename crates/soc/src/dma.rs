//! The DMA peripheral: an autonomous bus master subject to MPU checks.
//!
//! Figure 1 of the paper shows the MPU checking accesses from both the core
//! *and* the peripherals. This DMA engine is that peripheral: once started
//! through its memory-mapped registers it copies `len` words from `src` to
//! `dst`, one access per free bus cycle, and every one of those accesses
//! goes through the MPU pipeline as an (untrusted) user-mode request.

use crate::mpu::{AccessKind, AccessReq};

/// Byte address of the DMA source register.
pub const DMA_SRC: u16 = 0x8000;
/// Byte address of the DMA destination register.
pub const DMA_DST: u16 = 0x8004;
/// Byte address of the DMA length register (in words).
pub const DMA_LEN: u16 = 0x8008;
/// Byte address of the DMA control/status register.
pub const DMA_CTRL: u16 = 0x800c;

/// Transfer phase of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Next bus turn: read `src + 4 * progress`.
    Read,
    /// Data arrived; next bus turn: write it to `dst + 4 * progress`.
    Write,
}

/// The DMA engine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dma {
    /// Source byte address.
    pub src: u32,
    /// Destination byte address.
    pub dst: u32,
    /// Transfer length in words.
    pub len: u32,
    /// Whether a transfer is in flight.
    pub busy: bool,
    /// Words fully transferred so far.
    pub progress: u32,
    phase: Phase,
    buffer: u32,
}

impl Default for Dma {
    fn default() -> Self {
        Self::new()
    }
}

/// The bus request a DMA wants to make this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaAction {
    /// The engine is idle.
    Idle,
    /// Issue this read; deliver the data with [`Dma::deliver_read`].
    Read(AccessReq),
    /// Issue this write of `value`; acknowledge with [`Dma::write_done`].
    Write(AccessReq, u32),
}

impl Dma {
    /// An idle DMA engine.
    pub fn new() -> Self {
        Self {
            src: 0,
            dst: 0,
            len: 0,
            busy: false,
            progress: 0,
            phase: Phase::Read,
            buffer: 0,
        }
    }

    /// Handle a register write from the bus. Returns `true` when the
    /// address belongs to the DMA register window.
    pub fn reg_write(&mut self, addr: u16, value: u32) -> bool {
        match addr {
            DMA_SRC => self.src = value,
            DMA_DST => self.dst = value,
            DMA_LEN => self.len = value,
            DMA_CTRL => {
                if value & 1 == 1 && self.len > 0 {
                    self.busy = true;
                    self.progress = 0;
                    self.phase = Phase::Read;
                }
            }
            _ => return false,
        }
        true
    }

    /// Handle a register read from the bus; `None` when the address is not
    /// a DMA register.
    pub fn reg_read(&self, addr: u16) -> Option<u32> {
        Some(match addr {
            DMA_SRC => self.src,
            DMA_DST => self.dst,
            DMA_LEN => self.len,
            DMA_CTRL => u32::from(self.busy),
            _ => return None,
        })
    }

    /// The bus action the engine wants to take on a free cycle.
    pub fn action(&self) -> DmaAction {
        if !self.busy {
            return DmaAction::Idle;
        }
        match self.phase {
            Phase::Read => DmaAction::Read(AccessReq {
                addr: (self.src.wrapping_add(4 * self.progress) & 0xffff) as u16,
                kind: AccessKind::Read,
                user: true,
            }),
            Phase::Write => DmaAction::Write(
                AccessReq {
                    addr: (self.dst.wrapping_add(4 * self.progress) & 0xffff) as u16,
                    kind: AccessKind::Write,
                    user: true,
                },
                self.buffer,
            ),
        }
    }

    /// Deliver the data of the read issued from [`DmaAction::Read`].
    /// (A blocked read delivers zero; the engine cannot tell.)
    pub fn deliver_read(&mut self, value: u32) {
        self.buffer = value;
        self.phase = Phase::Write;
    }

    /// Acknowledge that the write from [`DmaAction::Write`] was resolved
    /// (committed or blocked): advance to the next word.
    pub fn write_done(&mut self) {
        self.progress += 1;
        self.phase = Phase::Read;
        if self.progress >= self.len {
            self.busy = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_file_roundtrips() {
        let mut d = Dma::new();
        assert!(d.reg_write(DMA_SRC, 0x1000));
        assert!(d.reg_write(DMA_DST, 0x2000));
        assert!(d.reg_write(DMA_LEN, 4));
        assert_eq!(d.reg_read(DMA_SRC), Some(0x1000));
        assert_eq!(d.reg_read(DMA_DST), Some(0x2000));
        assert_eq!(d.reg_read(DMA_LEN), Some(4));
        assert_eq!(d.reg_read(DMA_CTRL), Some(0));
        assert_eq!(d.reg_read(0x8010), None);
        assert!(!d.reg_write(0x8010, 1));
    }

    #[test]
    fn start_requires_nonzero_length() {
        let mut d = Dma::new();
        d.reg_write(DMA_CTRL, 1);
        assert!(!d.busy);
        d.reg_write(DMA_LEN, 1);
        d.reg_write(DMA_CTRL, 1);
        assert!(d.busy);
    }

    #[test]
    fn transfer_sequence_alternates_read_write() {
        let mut d = Dma::new();
        d.reg_write(DMA_SRC, 0x100);
        d.reg_write(DMA_DST, 0x200);
        d.reg_write(DMA_LEN, 2);
        d.reg_write(DMA_CTRL, 1);

        let DmaAction::Read(r0) = d.action() else {
            panic!("expected read")
        };
        assert_eq!(r0.addr, 0x100);
        assert_eq!(r0.kind, AccessKind::Read);
        assert!(r0.user, "DMA is an untrusted master");
        d.deliver_read(0xaa);

        let DmaAction::Write(w0, v0) = d.action() else {
            panic!("expected write")
        };
        assert_eq!(w0.addr, 0x200);
        assert_eq!(v0, 0xaa);
        d.write_done();

        let DmaAction::Read(r1) = d.action() else {
            panic!("expected read")
        };
        assert_eq!(r1.addr, 0x104);
        d.deliver_read(0xbb);
        let DmaAction::Write(w1, v1) = d.action() else {
            panic!("expected write")
        };
        assert_eq!(w1.addr, 0x204);
        assert_eq!(v1, 0xbb);
        d.write_done();

        assert!(!d.busy, "transfer complete");
        assert_eq!(d.action(), DmaAction::Idle);
        assert_eq!(d.progress, 2);
    }

    #[test]
    fn ctrl_read_reports_busy() {
        let mut d = Dma::new();
        d.reg_write(DMA_LEN, 1);
        d.reg_write(DMA_CTRL, 1);
        assert_eq!(d.reg_read(DMA_CTRL), Some(1));
    }
}
