//! The memory protection unit: functional (RTL-level) model.
//!
//! The MPU is the security-critical module of the evaluated policy (paper
//! Figure 1): every data access from the core and the DMA peripheral is
//! checked against a set of configured regions; user-mode accesses that no
//! region allows raise the `access_violation` responding signal, which the
//! core turns into a trap that isolates the offending process.
//!
//! # Microarchitecture
//!
//! The check is a short pipeline, which is what gives the fault attack its
//! temporal structure:
//!
//! * end of cycle `c`:   the request issued in `c` is captured into the
//!   *pipeline registers* (`pipe_*`),
//! * during cycle `c+1`: the pipeline registers are compared against the
//!   *configuration registers* combinationally (`viol_comb`),
//! * end of cycle `c+1`: `viol_comb` is captured into the `violation`
//!   output register (the responding signal), and the sticky status
//!   registers record the offending request,
//! * during cycle `c+2`: the access **resolves** — the SoC commits the
//!   memory effect only if the registered `violation` is clear, and traps
//!   the core when it is set. Every consumer reads the *registered*
//!   signal, which is what makes a latched gate-level fault act on RTL
//!   exactly like the corresponding architectural bit flip.
//!
//! Configuration registers are *memory-type* in the paper's classification
//! (bit errors persist indefinitely and contaminate nothing); the pipeline
//! and violation registers are *computation-type* (overwritten every cycle).
//!
//! This functional model is kept cycle-exact with the gate-level
//! elaboration in [`crate::mpu_synth`]; an equivalence test cross-checks
//! the two on random stimulus.

/// Number of protection regions.
pub const NUM_REGIONS: usize = 4;
/// Width of the checked address in bits.
pub const ADDR_BITS: usize = 16;
/// Configuration-word index of the global enable bit (see [`CfgWrite`]).
pub const CFG_ENABLE_INDEX: u8 = (NUM_REGIONS * 3) as u8;

/// Kind of a memory access presented to the MPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

impl AccessKind {
    /// 2-bit hardware encoding.
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::Exec => 2,
        }
    }

    /// Decode the 2-bit encoding; code 3 is reserved and decodes to `None`.
    #[inline]
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            2 => AccessKind::Exec,
            _ => return None,
        })
    }
}

/// Permission bits of a region.
pub mod perm {
    /// Read allowed.
    pub const R: u8 = 1 << 0;
    /// Write allowed.
    pub const W: u8 = 1 << 1;
    /// Execute allowed.
    pub const X: u8 = 1 << 2;
    /// Region applies to user-mode masters.
    pub const USER: u8 = 1 << 3;
    /// All four bits.
    pub const MASK: u8 = 0xf;
}

/// One protection region: an inclusive address range plus permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MpuRegion {
    /// Inclusive lower bound.
    pub base: u16,
    /// Inclusive upper bound.
    pub limit: u16,
    /// Permission bits (see [`perm`]).
    pub perms: u8,
}

impl MpuRegion {
    /// Whether this region allows a user-mode access of `kind` at `addr`.
    #[inline]
    pub fn allows(&self, addr: u16, kind: AccessKind) -> bool {
        if self.perms & perm::USER == 0 {
            return false;
        }
        if addr < self.base || addr > self.limit {
            return false;
        }
        let needed = match kind {
            AccessKind::Read => perm::R,
            AccessKind::Write => perm::W,
            AccessKind::Exec => perm::X,
        };
        self.perms & needed != 0
    }
}

/// The MPU configuration: global enable plus [`NUM_REGIONS`] regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MpuConfig {
    /// Global enable; a disabled MPU allows everything.
    pub enable: bool,
    /// The protection regions.
    pub regions: [MpuRegion; NUM_REGIONS],
}

impl MpuConfig {
    /// The pure protection predicate: does this configuration allow a
    /// (`user`-mode) access of `kind` at `addr`?
    ///
    /// Privileged accesses and accesses under a disabled MPU are always
    /// allowed. This is the function the analytical memory-type evaluation
    /// of the cross-level flow queries directly.
    pub fn allows(&self, addr: u16, kind: AccessKind, user: bool) -> bool {
        if !self.enable || !user {
            return true;
        }
        self.regions.iter().any(|r| r.allows(addr, kind))
    }
}

/// A memory access request presented to the MPU this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessReq {
    /// The accessed address.
    pub addr: u16,
    /// The access kind.
    pub kind: AccessKind,
    /// Whether the requesting master runs in user mode (the DMA peripheral
    /// is always treated as user mode).
    pub user: bool,
}

/// A configuration write applied at the end of the cycle.
///
/// `index` selects the word: `region * 3 + 0/1/2` for base/limit/perms, or
/// [`CFG_ENABLE_INDEX`] for the enable bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfgWrite {
    /// Configuration word index.
    pub index: u8,
    /// Data (low bits used for perms/enable).
    pub data: u16,
}

/// Identifies one architectural bit of the MPU's register state.
///
/// Fault injection flips these bits; the gate-level [`crate::mpu_synth`]
/// elaboration names its DFFs so that [`MpuBit::dff_name`] matches exactly,
/// giving the cross-level register map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MpuBit {
    /// Global enable flip-flop.
    Enable,
    /// Region base register bit `(region, bit)`.
    Base(u8, u8),
    /// Region limit register bit `(region, bit)`.
    Limit(u8, u8),
    /// Region permission register bit `(region, bit)`.
    Perms(u8, u8),
    /// Pipeline address register bit.
    PipeAddr(u8),
    /// Pipeline kind register bit (2 bits).
    PipeKind(u8),
    /// Pipeline user-mode flag.
    PipeUser,
    /// Pipeline request-valid flag.
    PipeValid,
    /// The registered `access_violation` responding signal.
    Violation,
    /// Sticky violation flag.
    StickyViol,
    /// Sticky captured violating address bit.
    StickyAddr(u8),
    /// Sticky captured violating kind bit.
    StickyKind(u8),
}

impl MpuBit {
    /// Every architectural bit, in a fixed canonical order.
    pub fn all() -> Vec<MpuBit> {
        let mut bits = Vec::new();
        bits.push(MpuBit::Enable);
        for r in 0..NUM_REGIONS as u8 {
            for b in 0..ADDR_BITS as u8 {
                bits.push(MpuBit::Base(r, b));
            }
            for b in 0..ADDR_BITS as u8 {
                bits.push(MpuBit::Limit(r, b));
            }
            for b in 0..4 {
                bits.push(MpuBit::Perms(r, b));
            }
        }
        for b in 0..ADDR_BITS as u8 {
            bits.push(MpuBit::PipeAddr(b));
        }
        bits.push(MpuBit::PipeKind(0));
        bits.push(MpuBit::PipeKind(1));
        bits.push(MpuBit::PipeUser);
        bits.push(MpuBit::PipeValid);
        bits.push(MpuBit::Violation);
        bits.push(MpuBit::StickyViol);
        for b in 0..ADDR_BITS as u8 {
            bits.push(MpuBit::StickyAddr(b));
        }
        bits.push(MpuBit::StickyKind(0));
        bits.push(MpuBit::StickyKind(1));
        bits
    }

    /// Position of this bit in [`MpuBit::all`] (and in
    /// [`MpuState::packed`]), computed without building the list.
    #[inline]
    pub const fn index(self) -> usize {
        const REGION: usize = 2 * ADDR_BITS + 4;
        const PIPE: usize = 1 + NUM_REGIONS * REGION;
        const STICKY: usize = PIPE + ADDR_BITS + 6;
        match self {
            MpuBit::Enable => 0,
            MpuBit::Base(r, b) => 1 + r as usize * REGION + b as usize,
            MpuBit::Limit(r, b) => 1 + r as usize * REGION + ADDR_BITS + b as usize,
            MpuBit::Perms(r, b) => 1 + r as usize * REGION + 2 * ADDR_BITS + b as usize,
            MpuBit::PipeAddr(b) => PIPE + b as usize,
            MpuBit::PipeKind(b) => PIPE + ADDR_BITS + b as usize,
            MpuBit::PipeUser => PIPE + ADDR_BITS + 2,
            MpuBit::PipeValid => PIPE + ADDR_BITS + 3,
            MpuBit::Violation => PIPE + ADDR_BITS + 4,
            MpuBit::StickyViol => PIPE + ADDR_BITS + 5,
            MpuBit::StickyAddr(b) => STICKY + b as usize,
            MpuBit::StickyKind(b) => STICKY + ADDR_BITS + b as usize,
        }
    }

    /// Whether this bit belongs to the (memory-type) configuration state.
    pub fn is_config(self) -> bool {
        matches!(
            self,
            MpuBit::Enable | MpuBit::Base(_, _) | MpuBit::Limit(_, _) | MpuBit::Perms(_, _)
        )
    }

    /// Whether this bit belongs to the sticky status state.
    pub fn is_sticky(self) -> bool {
        matches!(
            self,
            MpuBit::StickyViol | MpuBit::StickyAddr(_) | MpuBit::StickyKind(_)
        )
    }

    /// The DFF instance name used by the gate-level elaboration.
    pub fn dff_name(self) -> String {
        match self {
            MpuBit::Enable => "cfg_enable[0]".to_owned(),
            MpuBit::Base(r, b) => format!("cfg_base{r}[{b}]"),
            MpuBit::Limit(r, b) => format!("cfg_limit{r}[{b}]"),
            MpuBit::Perms(r, b) => format!("cfg_perms{r}[{b}]"),
            MpuBit::PipeAddr(b) => format!("pipe_addr[{b}]"),
            MpuBit::PipeKind(b) => format!("pipe_kind[{b}]"),
            MpuBit::PipeUser => "pipe_user".to_owned(),
            MpuBit::PipeValid => "pipe_valid".to_owned(),
            MpuBit::Violation => "access_violation_q".to_owned(),
            MpuBit::StickyViol => "sticky_viol".to_owned(),
            MpuBit::StickyAddr(b) => format!("sticky_addr[{b}]"),
            MpuBit::StickyKind(b) => format!("sticky_kind[{b}]"),
        }
    }
}

/// A set of architectural bits packed like [`MpuState::packed`]: member `b`
/// sets bit `b.index()`. Membership is a shift and a mask, and two sets
/// compare and hash as three words.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MpuBitMask([u64; 3]);

impl MpuBitMask {
    /// How many bits a mask holds: every [`MpuBit::index`] is below it, so
    /// tables indexed by bit can be sized without listing [`MpuBit::all`].
    pub const CAPACITY: usize = 3 * 64;

    /// Add a bit to the set.
    pub fn insert(&mut self, bit: MpuBit) {
        let i = bit.index();
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Whether the set holds `bit`.
    pub fn contains(&self, bit: MpuBit) -> bool {
        let i = bit.index();
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of bits in the set.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 3]
    }
}

impl FromIterator<MpuBit> for MpuBitMask {
    fn from_iter<I: IntoIterator<Item = MpuBit>>(bits: I) -> Self {
        let mut mask = Self::default();
        for bit in bits {
            mask.insert(bit);
        }
        mask
    }
}

impl std::hash::Hash for MpuBitMask {
    /// Three `write_u64` calls, so word hashers see whole words.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for w in self.0 {
            state.write_u64(w);
        }
    }
}

/// The full register state of the MPU (one instance per SoC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MpuState {
    /// Configuration registers (memory-type).
    pub config: MpuConfig,
    /// Pipeline: captured request address.
    pub pipe_addr: u16,
    /// Pipeline: captured request kind code.
    pub pipe_kind: u8,
    /// Pipeline: captured user-mode flag.
    pub pipe_user: bool,
    /// Pipeline: captured request-valid flag.
    pub pipe_valid: bool,
    /// The registered responding signal.
    pub violation: bool,
    /// Sticky violation flag (set one cycle after `violation`).
    pub sticky_violation: bool,
    /// Sticky captured violating address.
    pub sticky_addr: u16,
    /// Sticky captured violating kind code.
    pub sticky_kind: u8,
}

impl MpuState {
    /// The combinational violation signal of the current cycle: the
    /// pipelined request checked against the configuration.
    #[inline]
    pub fn viol_comb(&self) -> bool {
        if !self.pipe_valid || !self.pipe_user || !self.config.enable {
            return false;
        }
        let Some(kind) = AccessKind::from_code(self.pipe_kind) else {
            // Reserved kind code: no permission bit matches -> violation.
            return true;
        };
        !self
            .config
            .regions
            .iter()
            .any(|r| r.allows(self.pipe_addr, kind))
    }

    /// Advance one clock cycle: latch the violation, update sticky status,
    /// apply an optional configuration write, and capture the next request
    /// into the pipeline registers.
    #[inline]
    pub fn step(&mut self, req: Option<AccessReq>, cfg_write: Option<CfgWrite>) {
        let viol = self.viol_comb();
        if viol {
            self.sticky_addr = self.pipe_addr;
            self.sticky_kind = self.pipe_kind;
        }
        // Matches the netlist: sticky_viol.D = sticky_viol | violation_q.
        self.sticky_violation = self.sticky_violation || self.violation;
        self.violation = viol;
        if let Some(w) = cfg_write {
            self.apply_cfg_write(w);
        }
        match req {
            Some(r) => {
                self.pipe_addr = r.addr;
                self.pipe_kind = r.kind.code();
                self.pipe_user = r.user;
                self.pipe_valid = true;
            }
            None => {
                self.pipe_addr = 0;
                self.pipe_kind = 0;
                self.pipe_user = false;
                self.pipe_valid = false;
            }
        }
    }

    #[inline]
    fn apply_cfg_write(&mut self, w: CfgWrite) {
        if w.index == CFG_ENABLE_INDEX {
            self.config.enable = w.data & 1 == 1;
            return;
        }
        let region = (w.index / 3) as usize;
        if region >= NUM_REGIONS {
            return;
        }
        match w.index % 3 {
            0 => self.config.regions[region].base = w.data,
            1 => self.config.regions[region].limit = w.data,
            _ => self.config.regions[region].perms = (w.data & 0xf) as u8,
        }
    }

    /// Read a configuration word by [`CfgWrite`] index (bus reads).
    pub fn cfg_read(&self, index: u8) -> u16 {
        if index == CFG_ENABLE_INDEX {
            return u16::from(self.config.enable);
        }
        let region = (index / 3) as usize;
        if region >= NUM_REGIONS {
            return 0;
        }
        match index % 3 {
            0 => self.config.regions[region].base,
            1 => self.config.regions[region].limit,
            _ => u16::from(self.config.regions[region].perms),
        }
    }

    /// Read one architectural bit.
    pub fn bit(&self, bit: MpuBit) -> bool {
        match bit {
            MpuBit::Enable => self.config.enable,
            MpuBit::Base(r, b) => self.config.regions[r as usize].base >> b & 1 == 1,
            MpuBit::Limit(r, b) => self.config.regions[r as usize].limit >> b & 1 == 1,
            MpuBit::Perms(r, b) => self.config.regions[r as usize].perms >> b & 1 == 1,
            MpuBit::PipeAddr(b) => self.pipe_addr >> b & 1 == 1,
            MpuBit::PipeKind(b) => self.pipe_kind >> b & 1 == 1,
            MpuBit::PipeUser => self.pipe_user,
            MpuBit::PipeValid => self.pipe_valid,
            MpuBit::Violation => self.violation,
            MpuBit::StickyViol => self.sticky_violation,
            MpuBit::StickyAddr(b) => self.sticky_addr >> b & 1 == 1,
            MpuBit::StickyKind(b) => self.sticky_kind >> b & 1 == 1,
        }
    }

    /// Every architectural bit packed into words: bit `b.index()` equals
    /// `self.bit(b)`. Two states differ in exactly the bits set in the XOR
    /// of their packed forms, which is how the lifetime measurement
    /// compares a faulty state with the golden one in three word ops.
    #[inline]
    pub fn packed(&self) -> [u64; 3] {
        const REGION: usize = MpuBit::Base(1, 0).index() - MpuBit::Base(0, 0).index();
        let mut w = [0u64; 3];
        let mut put = |at: usize, width: u32, value: u64| {
            let (i, shift) = (at / 64, (at % 64) as u32);
            let v = value & ((1u64 << width) - 1);
            w[i] |= v << shift;
            if shift + width > 64 {
                w[i + 1] |= v >> (64 - shift);
            }
        };
        put(
            const { MpuBit::Enable.index() },
            1,
            u64::from(self.config.enable),
        );
        for (r, region) in self.config.regions.iter().enumerate() {
            let at = r * REGION;
            put(
                at + const { MpuBit::Base(0, 0).index() },
                16,
                u64::from(region.base),
            );
            put(
                at + const { MpuBit::Limit(0, 0).index() },
                16,
                u64::from(region.limit),
            );
            put(
                at + const { MpuBit::Perms(0, 0).index() },
                4,
                u64::from(region.perms),
            );
        }
        put(
            const { MpuBit::PipeAddr(0).index() },
            16,
            u64::from(self.pipe_addr),
        );
        put(
            const { MpuBit::PipeKind(0).index() },
            2,
            u64::from(self.pipe_kind),
        );
        put(
            const { MpuBit::PipeUser.index() },
            1,
            u64::from(self.pipe_user),
        );
        put(
            const { MpuBit::PipeValid.index() },
            1,
            u64::from(self.pipe_valid),
        );
        put(
            const { MpuBit::Violation.index() },
            1,
            u64::from(self.violation),
        );
        put(
            const { MpuBit::StickyViol.index() },
            1,
            u64::from(self.sticky_violation),
        );
        put(
            const { MpuBit::StickyAddr(0).index() },
            16,
            u64::from(self.sticky_addr),
        );
        put(
            const { MpuBit::StickyKind(0).index() },
            2,
            u64::from(self.sticky_kind),
        );
        w
    }

    /// Write one architectural bit.
    pub fn set_bit(&mut self, bit: MpuBit, v: bool) {
        fn set16(word: &mut u16, b: u8, v: bool) {
            if v {
                *word |= 1 << b;
            } else {
                *word &= !(1 << b);
            }
        }
        fn set8(word: &mut u8, b: u8, v: bool) {
            if v {
                *word |= 1 << b;
            } else {
                *word &= !(1 << b);
            }
        }
        match bit {
            MpuBit::Enable => self.config.enable = v,
            MpuBit::Base(r, b) => set16(&mut self.config.regions[r as usize].base, b, v),
            MpuBit::Limit(r, b) => set16(&mut self.config.regions[r as usize].limit, b, v),
            MpuBit::Perms(r, b) => set8(&mut self.config.regions[r as usize].perms, b, v),
            MpuBit::PipeAddr(b) => set16(&mut self.pipe_addr, b, v),
            MpuBit::PipeKind(b) => set8(&mut self.pipe_kind, b, v),
            MpuBit::PipeUser => self.pipe_user = v,
            MpuBit::PipeValid => self.pipe_valid = v,
            MpuBit::Violation => self.violation = v,
            MpuBit::StickyViol => self.sticky_violation = v,
            MpuBit::StickyAddr(b) => set16(&mut self.sticky_addr, b, v),
            MpuBit::StickyKind(b) => set8(&mut self.sticky_kind, b, v),
        }
    }

    /// Flip one architectural bit (fault injection).
    pub fn toggle_bit(&mut self, bit: MpuBit) {
        let v = self.bit(bit);
        self.set_bit(bit, !v);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn open_config() -> MpuConfig {
        MpuConfig {
            enable: true,
            regions: [
                MpuRegion {
                    base: 0x0000,
                    limit: 0x5fff,
                    perms: perm::R | perm::W | perm::X | perm::USER,
                },
                MpuRegion::default(),
                MpuRegion::default(),
                MpuRegion::default(),
            ],
        }
    }

    #[test]
    fn region_bounds_are_inclusive() {
        let r = MpuRegion {
            base: 0x100,
            limit: 0x1ff,
            perms: perm::R | perm::USER,
        };
        assert!(r.allows(0x100, AccessKind::Read));
        assert!(r.allows(0x1ff, AccessKind::Read));
        assert!(!r.allows(0xff, AccessKind::Read));
        assert!(!r.allows(0x200, AccessKind::Read));
    }

    #[test]
    fn permission_bits_gate_kinds() {
        let r = MpuRegion {
            base: 0,
            limit: 0xffff,
            perms: perm::R | perm::USER,
        };
        assert!(r.allows(5, AccessKind::Read));
        assert!(!r.allows(5, AccessKind::Write));
        assert!(!r.allows(5, AccessKind::Exec));
    }

    #[test]
    fn non_user_region_never_matches_user_access() {
        let r = MpuRegion {
            base: 0,
            limit: 0xffff,
            perms: perm::R | perm::W | perm::X,
        };
        assert!(!r.allows(5, AccessKind::Read));
    }

    #[test]
    fn privileged_and_disabled_always_allowed() {
        let mut cfg = open_config();
        assert!(cfg.allows(0x9000, AccessKind::Write, false));
        cfg.enable = false;
        assert!(cfg.allows(0x9000, AccessKind::Write, true));
    }

    #[test]
    fn user_access_outside_regions_is_denied() {
        let cfg = open_config();
        assert!(cfg.allows(0x1000, AccessKind::Write, true));
        assert!(!cfg.allows(0x7000, AccessKind::Write, true));
    }

    #[test]
    fn pipeline_delays_violation_by_one_cycle() {
        let mut mpu = MpuState {
            config: open_config(),
            ..Default::default()
        };
        // Cycle 0: illegal request issued.
        mpu.step(
            Some(AccessReq {
                addr: 0x7000,
                kind: AccessKind::Write,
                user: true,
            }),
            None,
        );
        assert!(!mpu.violation, "not yet latched");
        assert!(mpu.viol_comb(), "combinational check fires in cycle 1");
        // Cycle 1: no new request; violation latches at the end.
        mpu.step(None, None);
        assert!(mpu.violation);
        assert!(!mpu.sticky_violation, "sticky lags one more cycle");
        assert_eq!(mpu.sticky_addr, 0x7000);
        assert_eq!(mpu.sticky_kind, AccessKind::Write.code());
        mpu.step(None, None);
        assert!(mpu.sticky_violation);
        assert!(!mpu.violation, "violation register clears");
    }

    #[test]
    fn legal_request_raises_nothing() {
        let mut mpu = MpuState {
            config: open_config(),
            ..Default::default()
        };
        mpu.step(
            Some(AccessReq {
                addr: 0x1000,
                kind: AccessKind::Read,
                user: true,
            }),
            None,
        );
        assert!(!mpu.viol_comb());
        mpu.step(None, None);
        assert!(!mpu.violation);
    }

    #[test]
    fn cfg_write_applies_next_cycle() {
        let mut mpu = MpuState::default();
        mpu.step(
            None,
            Some(CfgWrite {
                index: CFG_ENABLE_INDEX,
                data: 1,
            }),
        );
        assert!(mpu.config.enable);
        mpu.step(
            None,
            Some(CfgWrite {
                index: 0,
                data: 0x1234,
            }),
        );
        assert_eq!(mpu.config.regions[0].base, 0x1234);
        mpu.step(
            None,
            Some(CfgWrite {
                index: 1,
                data: 0x2222,
            }),
        );
        assert_eq!(mpu.config.regions[0].limit, 0x2222);
        mpu.step(
            None,
            Some(CfgWrite {
                index: 2,
                data: 0xffff,
            }),
        );
        assert_eq!(mpu.config.regions[0].perms, 0xf, "perms masked to 4 bits");
        mpu.step(
            None,
            Some(CfgWrite {
                index: 5,
                data: 0x9,
            }),
        );
        assert_eq!(mpu.config.regions[1].perms, 0x9);
    }

    #[test]
    fn cfg_read_matches_writes() {
        let mut mpu = MpuState::default();
        for (index, data) in [(0u8, 0x1111u16), (1, 0x2222), (2, 0xf), (12, 1)] {
            mpu.apply_cfg_write(CfgWrite { index, data });
        }
        assert_eq!(mpu.cfg_read(0), 0x1111);
        assert_eq!(mpu.cfg_read(1), 0x2222);
        assert_eq!(mpu.cfg_read(2), 0xf);
        assert_eq!(mpu.cfg_read(CFG_ENABLE_INDEX), 1);
        assert_eq!(mpu.cfg_read(50), 0);
    }

    #[test]
    fn bit_access_roundtrips_every_bit() {
        let mut mpu = MpuState::default();
        for bit in MpuBit::all() {
            assert!(!mpu.bit(bit), "{bit:?} should start clear");
            mpu.set_bit(bit, true);
            assert!(mpu.bit(bit), "{bit:?} set failed");
            mpu.toggle_bit(bit);
            assert!(!mpu.bit(bit), "{bit:?} toggle failed");
        }
    }

    #[test]
    fn bit_count_matches_architecture() {
        // enable + 4 regions * (16 + 16 + 4) + pipe (16+2+1+1) + violation
        // + sticky (1 + 16 + 2)
        let expect = 1 + NUM_REGIONS * 36 + 20 + 1 + 19;
        assert_eq!(MpuBit::all().len(), expect);
    }

    #[test]
    fn config_bits_are_flagged() {
        assert!(MpuBit::Enable.is_config());
        assert!(MpuBit::Base(3, 15).is_config());
        assert!(!MpuBit::PipeAddr(0).is_config());
        assert!(!MpuBit::Violation.is_config());
        assert!(MpuBit::StickyViol.is_sticky());
        assert!(!MpuBit::Enable.is_sticky());
    }

    #[test]
    fn flipping_a_limit_bit_opens_a_hole() {
        // The canonical config-register attack: extend region 0 to cover the
        // protected address by flipping a high limit bit.
        let mut mpu = MpuState {
            config: open_config(),
            ..Default::default()
        };
        assert!(!mpu.config.allows(0x7000, AccessKind::Write, true));
        // limit 0x5fff -> flip bit 13 -> 0x7fff
        mpu.toggle_bit(MpuBit::Limit(0, 13));
        assert!(mpu.config.allows(0x7000, AccessKind::Write, true));
    }

    #[test]
    fn reserved_kind_code_violates() {
        let mut mpu = MpuState {
            config: open_config(),
            ..Default::default()
        };
        mpu.pipe_valid = true;
        mpu.pipe_user = true;
        mpu.pipe_addr = 0x1000;
        mpu.pipe_kind = 3;
        assert!(mpu.viol_comb());
    }

    #[test]
    fn index_is_the_position_in_all() {
        let all = MpuBit::all();
        for &b in &all {
            assert_eq!(all[b.index()], b);
        }
    }

    /// An arbitrary state, including the bits above each field's
    /// architectural width (`perms` 4 of 8, `pipe_kind`/`sticky_kind` 2 of
    /// 8) that [`MpuState::bit`] never reads.
    pub(crate) fn state_from_raw(raw: [u64; 4]) -> MpuState {
        let mut regions = [MpuRegion::default(); NUM_REGIONS];
        for (r, region) in regions.iter_mut().enumerate() {
            let word = raw[r];
            region.base = word as u16;
            region.limit = (word >> 16) as u16;
            region.perms = (word >> 32) as u8;
        }
        let bits = |i: u32| raw[0] >> (48 + i) & 1 == 1;
        MpuState {
            config: MpuConfig {
                enable: bits(0),
                regions,
            },
            pipe_addr: (raw[1] >> 40) as u16,
            pipe_kind: (raw[2] >> 40) as u8,
            pipe_user: bits(1),
            pipe_valid: bits(2),
            violation: bits(3),
            sticky_violation: bits(4),
            sticky_addr: (raw[3] >> 40) as u16,
            sticky_kind: (raw[3] >> 56) as u8,
        }
    }

    proptest::proptest! {
        #[test]
        fn packed_agrees_with_bit(raw in proptest::prelude::any::<[u64; 4]>()) {
            let state = state_from_raw(raw);
            let packed = state.packed();
            for b in MpuBit::all() {
                let i = b.index();
                proptest::prop_assert_eq!(packed[i / 64] >> (i % 64) & 1 == 1, state.bit(b));
            }
            let width = MpuBit::all().len();
            proptest::prop_assert_eq!(packed[2] >> (width - 128), 0, "bits past the last");
        }
    }

    #[test]
    fn bit_mask_holds_exactly_its_members() {
        let all = MpuBit::all();
        let evens: MpuBitMask = all.iter().copied().step_by(2).collect();
        assert_eq!(evens.len(), all.len().div_ceil(2));
        for (k, &b) in all.iter().enumerate() {
            assert_eq!(evens.contains(b), k % 2 == 0, "{b:?}");
        }
        let full: MpuBitMask = all.iter().copied().collect();
        assert_eq!(full.len(), all.len());
        assert!(all.iter().all(|b| b.index() < MpuBitMask::CAPACITY));
        assert!(MpuBitMask::default().is_empty());
        // Set semantics: order and repeats do not matter.
        let a: MpuBitMask = [MpuBit::Enable, MpuBit::StickyKind(1)]
            .into_iter()
            .collect();
        let b: MpuBitMask = [MpuBit::StickyKind(1), MpuBit::Enable, MpuBit::Enable]
            .into_iter()
            .collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn dff_names_are_unique() {
        let names: std::collections::HashSet<String> =
            MpuBit::all().iter().map(|b| b.dff_name()).collect();
        assert_eq!(names.len(), MpuBit::all().len());
    }
}
