//! The composed SoC: core + MPU + DMA + memory behind one bus.
//!
//! This is the RTL-level simulation substrate of the cross-level flow (the
//! stand-in for the paper's Synopsys VCS runs): a cycle-accurate model of
//! the whole system whose full state is cheap to checkpoint and restore.
//!
//! # Bus and MPU timing
//!
//! One data access can be issued per cycle (the core has priority; the DMA
//! engine uses free cycles). An access issued in cycle `c` flows through a
//! three-stage path:
//!
//! * end of `c`:   captured into the MPU pipeline registers,
//! * during `c+1`: checked combinationally against the configuration,
//! * end of `c+1`: the verdict latches into the `access_violation` register,
//! * during `c+2`: the access **resolves** — it commits only if the
//!   violation register is clear, and the core traps when it is set.
//!
//! Every downstream consumer (commit gating *and* trap) reads the
//! *registered* responding signal. This is what makes the cross-level
//! abstraction exact: a gate-level fault that flips a latched MPU register
//! changes RTL behavior in precisely the same way when the flip is written
//! back into [`MpuState`] and the RTL simulation resumes.
//!
//! Instruction fetches bypass the MPU (see DESIGN.md for this documented
//! simplification).

use crate::core::{Core, CoreAction, TrapCause};
use crate::dma::{Dma, DmaAction};
use crate::mpu::{AccessKind, AccessReq, CfgWrite, MpuState, CFG_ENABLE_INDEX};
use std::sync::Arc;

/// Bytes of RAM (word-granular, starting at address 0).
pub const RAM_BYTES: u32 = 0x8000;
/// Words per copy-on-write RAM page (1 KiB).
const PAGE_WORDS: usize = 256;
/// Pages per RAM image.
const RAM_PAGES: usize = RAM_BYTES as usize / 4 / PAGE_WORDS;
/// Base byte address of the MPU configuration window.
pub const MPU_CFG_BASE: u16 = 0x8100;

/// Which bus master performed an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Master {
    /// The CPU core.
    Core,
    /// The DMA peripheral.
    Dma,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingOp {
    Write(u32),
    ReadToCore,
    ReadToDma,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    master: Master,
    req: AccessReq,
    op: PendingOp,
}

/// One resolved (committed or blocked) data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Cycle in which the access resolved.
    pub cycle: u64,
    /// The requesting master.
    pub master: Master,
    /// The request as seen by the MPU.
    pub req: AccessReq,
    /// Whether the MPU allowed it.
    pub allowed: bool,
}

/// What happened during one [`Soc::step`].
#[derive(Debug, Clone, Default)]
pub struct StepEvents {
    /// The request issued this cycle (captured by the MPU at cycle end).
    pub issued: Option<(Master, AccessReq)>,
    /// Configuration write committed this cycle.
    pub cfg_write: Option<CfgWrite>,
    /// Value of the MPU's combinational violation signal this cycle.
    pub viol_comb: bool,
    /// The access resolved this cycle (issued two cycles earlier).
    pub resolved: Option<AccessRecord>,
    /// Whether the core entered the trap handler this cycle.
    pub trapped: bool,
    /// Whether an allowed read of the MPU configuration window resolved
    /// this cycle: besides the registered violation, the one place the
    /// cycle body reads the MPU.
    pub cfg_read: bool,
}

type Page = Arc<[u32; PAGE_WORDS]>;

/// RAM as copy-on-write pages shared between clones.
///
/// A clone shares every page with its source; a write copies only the
/// page it lands in, and only if the page is shared and the value
/// changes. A clone therefore holds just the pages written since it
/// diverged.
///
/// A system that is restored over and over (the campaign's resident
/// resume system) keeps the pages it owns alone: [`Ram::restore_from`]
/// overwrites them in place instead of dropping them, so the next write
/// to them copies nothing. Per owned page it records the source page the
/// content came from and whether the page was written since, so a clean
/// page restored from the same source costs nothing at all.
#[derive(Debug, Clone)]
struct Ram {
    pages: [Page; RAM_PAGES],
    /// Per page the system owns alone: the source page its content was
    /// last copied from (held, so the address cannot be reused by another
    /// page while the record stands). Boxed on the first in-place restore,
    /// so systems that are never restored into (checkpoints, snapshots)
    /// carry one pointer.
    origin: Option<Box<[Option<Page>; RAM_PAGES]>>,
    /// Pages written since their last restore, one bit per page.
    dirty: u32,
}

const _: () = assert!(RAM_PAGES <= u32::BITS as usize, "one dirty bit per page");

impl Ram {
    fn new(image: &[u32]) -> Self {
        Self {
            pages: std::array::from_fn(|p| {
                let mut page = [0u32; PAGE_WORDS];
                let chunk = image.chunks(PAGE_WORDS).nth(p).unwrap_or_default();
                page[..chunk.len()].copy_from_slice(chunk);
                Arc::new(page)
            }),
            origin: None,
            dirty: 0,
        }
    }

    #[inline]
    fn get(&self, word: usize) -> u32 {
        self.pages[word / PAGE_WORDS][word % PAGE_WORDS]
    }

    #[inline]
    fn set(&mut self, word: usize, value: u32) {
        let p = word / PAGE_WORDS;
        let page = &mut self.pages[p];
        if page[word % PAGE_WORDS] != value {
            Arc::make_mut(page)[word % PAGE_WORDS] = value;
            self.dirty |= 1 << p;
        }
    }

    /// Take `src`'s contents: a page shared with `src` stays, a page this
    /// RAM owns alone is overwritten in place (unless it still holds, clean,
    /// the very source page), and any other page is re-shared.
    fn restore_from(&mut self, src: &Ram) {
        let origins = self.origin.get_or_insert_with(Default::default);
        for (p, ((dst, origin), page)) in self
            .pages
            .iter_mut()
            .zip(origins.iter_mut())
            .zip(&src.pages)
            .enumerate()
        {
            if Arc::ptr_eq(dst, page) {
                continue;
            }
            let clean = self.dirty & (1 << p) == 0;
            match Arc::get_mut(dst) {
                Some(own) => {
                    if !(clean && origin.as_ref().is_some_and(|o| Arc::ptr_eq(o, page))) {
                        own.copy_from_slice(&page[..]);
                        *origin = Some(Arc::clone(page));
                    }
                }
                None => {
                    *dst = Arc::clone(page);
                    *origin = None;
                }
            }
        }
        self.dirty = 0;
    }
}

impl PartialEq for Ram {
    fn eq(&self, other: &Self) -> bool {
        self.pages
            .iter()
            .zip(&other.pages)
            .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

/// The full simulated system. `Clone` is the checkpoint mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct Soc {
    /// The CPU core.
    pub core: Core,
    /// The MPU register state.
    pub mpu: MpuState,
    /// The DMA engine.
    pub dma: Dma,
    mem: Ram,
    /// Elapsed cycles since reset.
    pub cycle: u64,
    /// Access issued last cycle, now in the MPU pipeline.
    in_pipe: Option<Pending>,
    /// Access issued two cycles ago, resolving this cycle.
    resolving: Option<Pending>,
    /// Whether the DMA has a request in flight (prevents double-issue).
    dma_outstanding: bool,
}

impl Soc {
    /// A system in reset state with `program` loaded at address 0.
    ///
    /// # Panics
    ///
    /// Panics when the program does not fit in RAM.
    pub fn new(program: &[u32]) -> Self {
        let words = (RAM_BYTES / 4) as usize;
        assert!(program.len() <= words, "program does not fit in RAM");
        Self {
            core: Core::new(),
            mpu: MpuState::default(),
            dma: Dma::new(),
            mem: Ram::new(program),
            cycle: 0,
            in_pipe: None,
            resolving: None,
            dma_outstanding: false,
        }
    }

    /// Whether the core has halted (the SoC freezes then).
    pub fn halted(&self) -> bool {
        self.core.halted
    }

    /// Overwrite this system's state from a checkpoint.
    ///
    /// Equivalent to `*self = src.clone()`, but RAM pages this system
    /// already shares with `src` are kept, so the cost is proportional to
    /// the pages written since the two diverged — the campaign hot path
    /// restores thousands of checkpoints per worker.
    pub fn restore_from(&mut self, src: &Soc) {
        self.core = src.core.clone();
        self.mpu = src.mpu;
        self.dma = src.dma;
        self.mem.restore_from(&src.mem);
        self.cycle = src.cycle;
        self.in_pipe = src.in_pipe;
        self.resolving = src.resolving;
        self.dma_outstanding = src.dma_outstanding;
    }

    /// Read a RAM word by byte address (no MPU involvement; test/analysis
    /// access).
    pub fn mem_word(&self, addr: u16) -> u32 {
        let a = u32::from(addr) & !3;
        if a < RAM_BYTES {
            self.mem.get((a >> 2) as usize)
        } else {
            0
        }
    }

    /// Write a RAM word by byte address (test/analysis access).
    pub fn set_mem_word(&mut self, addr: u16, value: u32) {
        let a = u32::from(addr) & !3;
        if a < RAM_BYTES {
            self.mem.set((a >> 2) as usize, value);
        }
    }

    fn fetch(&self, pc: u32) -> u32 {
        self.mem.get(((pc & (RAM_BYTES - 1)) >> 2) as usize)
    }

    fn bus_read(&self, addr: u16) -> u32 {
        let a = addr & !3;
        if u32::from(a) < RAM_BYTES {
            return self.mem.get((a >> 2) as usize);
        }
        if let Some(v) = self.dma.reg_read(a) {
            return v;
        }
        if let Some(index) = cfg_index(a) {
            return u32::from(self.mpu.cfg_read(index));
        }
        0
    }

    /// Routes a committed write; returns an MPU configuration write when
    /// the address falls in the (privileged-only) configuration window.
    fn bus_write(&mut self, addr: u16, value: u32, user: bool) -> Option<CfgWrite> {
        let a = addr & !3;
        if u32::from(a) < RAM_BYTES {
            self.mem.set((a >> 2) as usize, value);
            return None;
        }
        if self.dma.reg_write(a, value) {
            return None;
        }
        if let Some(index) = cfg_index(a) {
            // Hardware backstop: configuration accepts privileged writes
            // only, independent of the MPU check outcome.
            if !user {
                return Some(CfgWrite {
                    index,
                    data: (value & 0xffff) as u16,
                });
            }
        }
        None
    }

    /// Advance the system by one clock cycle.
    pub fn step(&mut self) -> StepEvents {
        let mut ev = StepEvents::default();
        self.cycle_body(Some(&mut ev));
        ev
    }

    /// One clock cycle, recording into `ev` when there is one (a halted
    /// system stays put). The one cycle body of [`Soc::step`] and
    /// [`Soc::run_until_halt`]; inlined into each, so the latter's `None`
    /// compiles every recording branch away.
    #[inline(always)]
    fn cycle_body(&mut self, mut ev: Option<&mut StepEvents>) {
        if self.core.halted {
            return;
        }

        // 1. Resolve the access issued two cycles ago. The MPU's *registered*
        //    violation is its verdict: it gates the commit and raises the
        //    trap, so latched faults act consistently on both.
        let violation = self.mpu.violation;
        if let Some(ev) = ev.as_deref_mut() {
            ev.viol_comb = self.mpu.viol_comb();
        }
        let mut cfg_write = None;
        if let Some(p) = self.resolving.take() {
            let allowed = !violation;
            if let Some(ev) = ev.as_deref_mut() {
                ev.resolved = Some(AccessRecord {
                    cycle: self.cycle,
                    master: p.master,
                    req: p.req,
                    allowed,
                });
            }
            match p.op {
                PendingOp::Write(v) => {
                    if allowed {
                        cfg_write = self.bus_write(p.req.addr, v, p.req.user);
                    }
                    if p.master == Master::Dma {
                        self.dma.write_done();
                        self.dma_outstanding = false;
                    }
                }
                PendingOp::ReadToCore => {
                    let v = if allowed {
                        self.bus_read(p.req.addr)
                    } else {
                        0
                    };
                    self.core.deliver_load(v);
                }
                PendingOp::ReadToDma => {
                    let v = if allowed {
                        self.bus_read(p.req.addr)
                    } else {
                        0
                    };
                    self.dma.deliver_read(v);
                    self.dma_outstanding = false;
                }
            }
            if let Some(ev) = ev.as_deref_mut() {
                ev.cfg_read = allowed
                    && !matches!(p.op, PendingOp::Write(_))
                    && cfg_index(p.req.addr).is_some();
            }
        }

        // 2. The registered responding signal traps the core. Traps are
        //    masked while privileged (the handler runs with violations
        //    disabled, as real trap hardware does) — otherwise a second
        //    in-flight violation would re-enter the handler and clobber EPC.
        let trapped = violation && !self.core.privileged;
        if trapped {
            self.core.trap(TrapCause::MpuFault, self.core.pc);
        }
        if let Some(ev) = ev.as_deref_mut() {
            ev.trapped = trapped;
        }

        // 3. Core executes one instruction (unless it trapped this cycle,
        //    is waiting on a load, or halted).
        let mut new_pending: Option<Pending> = None;
        if !trapped && !self.core.load_pending() && !self.core.halted {
            let word = self.fetch(self.core.pc);
            let user = !self.core.privileged;
            match self.core.execute(word) {
                CoreAction::None => {}
                CoreAction::Read { addr, .. } => {
                    new_pending = Some(Pending {
                        master: Master::Core,
                        req: AccessReq {
                            addr: (addr & 0xffff) as u16,
                            kind: AccessKind::Read,
                            user,
                        },
                        op: PendingOp::ReadToCore,
                    });
                }
                CoreAction::Write { addr, value } => {
                    new_pending = Some(Pending {
                        master: Master::Core,
                        req: AccessReq {
                            addr: (addr & 0xffff) as u16,
                            kind: AccessKind::Write,
                            user,
                        },
                        op: PendingOp::Write(value),
                    });
                }
            }
        }

        // 4. DMA takes the bus when the core left it free and it has no
        //    request already in flight.
        if new_pending.is_none() && !self.dma_outstanding {
            match self.dma.action() {
                DmaAction::Idle => {}
                DmaAction::Read(req) => {
                    new_pending = Some(Pending {
                        master: Master::Dma,
                        req,
                        op: PendingOp::ReadToDma,
                    });
                    self.dma_outstanding = true;
                }
                DmaAction::Write(req, value) => {
                    new_pending = Some(Pending {
                        master: Master::Dma,
                        req,
                        op: PendingOp::Write(value),
                    });
                    self.dma_outstanding = true;
                }
            }
        }

        // 5. End of cycle: the MPU latches the new request, the violation
        //    verdict and any configuration write; the pipeline advances.
        let req = new_pending.as_ref().map(|p| p.req);
        self.mpu.step(req, cfg_write);
        if let Some(ev) = ev {
            ev.issued = new_pending.as_ref().map(|p| (p.master, p.req));
            ev.cfg_write = cfg_write;
        }
        self.resolving = self.in_pipe.take();
        self.in_pipe = new_pending;
        self.cycle += 1;
    }

    /// Run until the core halts or `max_cycles` elapse; returns the cycle
    /// count reached. The cycles record no [`StepEvents`].
    pub fn run_until_halt(&mut self, max_cycles: u64) -> u64 {
        while !self.core.halted && self.cycle < max_cycles {
            self.cycle_body(None);
        }
        self.cycle
    }
}

/// Map a byte address in the MPU configuration window to its word index.
fn cfg_index(addr: u16) -> Option<u8> {
    let a = addr & !3;
    if !(MPU_CFG_BASE..=MPU_CFG_BASE + 4 * u16::from(CFG_ENABLE_INDEX)).contains(&a) {
        return None;
    }
    Some(((a - MPU_CFG_BASE) / 4) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::dma::{DMA_CTRL, DMA_DST, DMA_LEN, DMA_SRC};

    fn soc_from(src: &str) -> Soc {
        Soc::new(&assemble(src).unwrap().words)
    }

    #[test]
    fn simple_program_runs_to_halt() {
        let mut soc = soc_from(
            "
            li r1, 5
            li r2, 0
        loop:
            addi r2, r2, 1
            bne r2, r1, loop
            halt
            ",
        );
        soc.run_until_halt(1000);
        assert!(soc.halted());
        assert_eq!(soc.core.regs[2], 5);
    }

    #[test]
    fn store_and_load_roundtrip_through_bus() {
        let mut soc = soc_from(
            "
            li r1, 0x4000
            li r2, 1234
            sw r2, 0(r1)
            lw r3, 0(r1)
            halt
            ",
        );
        soc.run_until_halt(100);
        assert_eq!(soc.mem_word(0x4000), 1234);
        assert_eq!(soc.core.regs[3], 1234, "load must see the earlier store");
    }

    #[test]
    fn load_costs_a_stall_cycle() {
        // lw stalls the core one extra cycle versus an ALU op (the access
        // resolves two cycles after issue).
        let mut a = soc_from("li r1, 0x4000\nlw r2, 0(r1)\nhalt");
        let mut b = soc_from("li r1, 0x4000\nnop\nhalt");
        a.run_until_halt(100);
        b.run_until_halt(100);
        assert_eq!(a.cycle, b.cycle + 1);
    }

    #[test]
    fn load_data_resolves_before_dependent_instruction() {
        let mut soc = soc_from(
            "
            li r1, 0x4000
            li r2, 21
            sw r2, 0(r1)
            lw r3, 0(r1)
            add r4, r3, r3
            halt
            ",
        );
        soc.run_until_halt(100);
        assert_eq!(soc.core.regs[4], 42);
    }

    /// Full end-to-end security scenario: privileged setup, user-mode
    /// illegal write, violation, trap, isolation.
    #[test]
    fn illegal_user_write_is_blocked_and_trapped() {
        let mut soc = soc_from(
            "
            ; region0: user RWX over [0x0000, 0x5fff]
            li r1, 0x8100
            li r2, 0
            sw r2, 0(r1)
            li r2, 0x5fff
            sw r2, 4(r1)
            li r2, 0xf
            sw r2, 8(r1)
            li r2, 1
            sw r2, 0x30(r1)     ; enable
            li r3, handler
            csrrw r0, tvec, r3
            li r4, user
            csrrw r0, epc, r4
            mret
        user:
            li r5, 0x7000
            li r6, 0xbeef
            sw r6, 0(r5)        ; illegal write
            nop
            nop
            nop
            nop
            halt                 ; should never get here
        handler:
            li r7, 1
            csrrw r0, isolated, r7
            halt
            ",
        );
        soc.run_until_halt(1000);
        assert!(soc.halted());
        assert_eq!(soc.mem_word(0x7000), 0, "write must be blocked");
        assert_eq!(soc.core.isolated, 1, "handler must have isolated");
        assert!(soc.mpu.sticky_violation);
        assert_eq!(soc.mpu.sticky_addr, 0x7000);
    }

    /// The cross-level abstraction check: flipping the latched violation
    /// register at exactly the right cycle lets the illegal write commit
    /// *and* suppresses the trap — the canonical computation-type attack.
    #[test]
    fn flipping_violation_register_defeats_detection() {
        let src = "
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
            li r6, 0xbeef
            sw r6, 0(r5)
            nop
            nop
            nop
            nop
            halt
        handler:
            li r7, 1
            csrrw r0, isolated, r7
            halt
            ";
        // Find the cycle where the violation register is first set.
        let mut probe = soc_from(src);
        let mut viol_set_at = None;
        while !probe.halted() {
            let before = probe.mpu.violation;
            probe.step();
            if !before && probe.mpu.violation {
                viol_set_at = Some(probe.cycle);
                break;
            }
        }
        let viol_set_at = viol_set_at.expect("violation must latch");

        // Replay; flip the violation register the moment it latches.
        let mut soc = soc_from(src);
        while soc.cycle < viol_set_at {
            soc.step();
        }
        assert!(soc.mpu.violation);
        soc.mpu.violation = false; // the injected fault
        soc.run_until_halt(1000);
        assert_eq!(soc.mem_word(0x7000), 0xbeef, "illegal write committed");
        assert_eq!(soc.core.isolated, 0, "trap suppressed");
    }

    #[test]
    fn legal_user_write_commits_without_trap() {
        let mut soc = soc_from(
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
            li r5, 0x4000
            li r6, 0x42
            sw r6, 0(r5)
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
        soc.run_until_halt(1000);
        assert_eq!(soc.mem_word(0x4000), 0x42);
        assert_eq!(soc.core.isolated, 0);
        assert!(!soc.mpu.sticky_violation);
    }

    #[test]
    fn blocked_load_returns_zero() {
        let mut soc = soc_from(
            "
            li r1, 0x7000
            li r2, 0x5555
            sw r2, 0(r1)        ; privileged store of the secret
            li r3, 0x8100
            li r2, 0
            sw r2, 0(r3)
            li r2, 0x5fff
            sw r2, 4(r3)
            li r2, 0xf
            sw r2, 8(r3)
            li r2, 1
            sw r2, 0x30(r3)
            li r4, handler
            csrrw r0, tvec, r4
            li r4, user
            csrrw r0, epc, r4
            mret
        user:
            li r5, 0x7000
            lw r6, 0(r5)        ; illegal read
            sw r6, 0x4000(r0)   ; would leak it
            nop
            nop
            halt
        handler:
            li r7, 1
            csrrw r0, isolated, r7
            halt
            ",
        );
        soc.run_until_halt(1000);
        assert_eq!(soc.core.isolated, 1);
        assert_ne!(
            soc.mem_word(0x4000),
            0x5555,
            "secret must not reach the user buffer"
        );
    }

    #[test]
    fn privileged_access_everywhere_is_fine() {
        let mut soc = soc_from(
            "
            li r2, 1
            sw r2, 0x8130(r0)   ; enable MPU with no regions
            li r1, 0x7000
            li r2, 7
            sw r2, 0(r1)        ; privileged write outside all regions
            lw r3, 0(r1)
            halt
            ",
        );
        soc.run_until_halt(100);
        assert_eq!(soc.core.regs[3], 7);
        assert!(!soc.mpu.sticky_violation);
    }

    #[test]
    fn user_cannot_reconfigure_the_mpu() {
        let mut soc = soc_from(
            "
            ; region0 covers everything including the cfg window
            li r1, 0x8100
            li r2, 0
            sw r2, 0(r1)
            li r2, 0xffff
            sw r2, 4(r1)
            li r2, 0xf
            sw r2, 8(r1)
            li r2, 1
            sw r2, 0x30(r1)
            li r4, user
            csrrw r0, epc, r4
            mret
        user:
            li r5, 0x8130
            sw r0, 0(r5)        ; try to disable the MPU from user mode
            nop
            nop
            nop
            halt
            ",
        );
        soc.run_until_halt(1000);
        assert!(
            soc.mpu.config.enable,
            "user-mode config write must be ignored by the hardware backstop"
        );
    }

    #[test]
    fn dma_copies_when_bus_is_free() {
        let mut soc = soc_from(&format!(
            "
            li r1, 0x4000
            li r2, 0x1111
            sw r2, 0(r1)
            li r2, 0x2222
            sw r2, 4(r1)
            li r3, {DMA_SRC}
            li r4, 0x4000
            sw r4, 0(r3)
            li r4, 0x4800
            sw r4, {off_dst}(r3)
            li r4, 2
            sw r4, {off_len}(r3)
            li r4, 1
            sw r4, {off_ctrl}(r3)
        wait:
            lw r5, {off_ctrl}(r3)
            bne r5, r0, wait
            halt
            ",
            off_dst = DMA_DST - DMA_SRC,
            off_len = DMA_LEN - DMA_SRC,
            off_ctrl = DMA_CTRL - DMA_SRC,
        ));
        soc.run_until_halt(2000);
        assert!(soc.halted());
        assert_eq!(soc.mem_word(0x4800), 0x1111);
        assert_eq!(soc.mem_word(0x4804), 0x2222);
        assert!(!soc.dma.busy);
    }

    #[test]
    fn dma_writes_into_protected_memory_are_blocked() {
        // MPU on with a user region over [0x4000, 0x4fff]; DMA (always
        // user) tries to write to 0x7000. The trap handler resumes so the
        // privileged core can observe the aftermath.
        let mut soc = soc_from(&format!(
            "
            li r1, 0x8100
            li r2, 0x4000
            sw r2, 0(r1)
            li r2, 0x4fff
            sw r2, 4(r1)
            li r2, 0xf
            sw r2, 8(r1)
            li r2, 1
            sw r2, 0x30(r1)
            li r6, resume
            csrrw r0, tvec, r6
            li r3, {DMA_SRC}
            li r4, 0x4000
            sw r4, 0(r3)
            li r4, 0x7000
            sw r4, {off_dst}(r3)
            li r4, 1
            sw r4, {off_len}(r3)
            li r4, 1
            sw r4, {off_ctrl}(r3)
        wait:
            lw r5, {off_ctrl}(r3)
            bne r5, r0, wait
            halt
        resume:
            mret
            ",
            off_dst = DMA_DST - DMA_SRC,
            off_len = DMA_LEN - DMA_SRC,
            off_ctrl = DMA_CTRL - DMA_SRC,
        ));
        soc.run_until_halt(2000);
        assert_eq!(soc.mem_word(0x7000), 0, "DMA write must be blocked");
        assert!(soc.mpu.sticky_violation);
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let src = "
            li r1, 20
            li r2, 0
        loop:
            addi r2, r2, 1
            sw r2, 0x4000(r0)
            lw r3, 0x4000(r0)
            bne r2, r1, loop
            halt
            ";
        let mut a = soc_from(src);
        for _ in 0..30 {
            a.step();
        }
        let ckpt = a.clone();
        let mut b = ckpt.clone();
        a.run_until_halt(10_000);
        b.run_until_halt(10_000);
        assert_eq!(a, b, "restored run must be cycle-identical");
    }

    #[test]
    fn cfg_window_reads_back() {
        let mut soc = soc_from(
            "
            li r1, 0x8100
            li r2, 0x1234
            sw r2, 0(r1)
            lw r3, 0(r1)
            halt
            ",
        );
        soc.run_until_halt(100);
        assert_eq!(soc.core.regs[3], 0x1234);
    }

    #[test]
    fn cfg_index_decoding() {
        assert_eq!(cfg_index(0x8100), Some(0));
        assert_eq!(cfg_index(0x8104), Some(1));
        assert_eq!(cfg_index(0x8130), Some(12));
        assert_eq!(cfg_index(0x8134), None);
        assert_eq!(cfg_index(0x80fc), None);
    }
}
