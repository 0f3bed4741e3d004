//! Gate-level elaboration of the MPU.
//!
//! This is the "synthesized netlist" the cross-level flow switches to during
//! the fault-injection cycle. The elaboration instantiates the same
//! microarchitecture as the functional [`crate::mpu`] model — pipeline
//! registers, per-region magnitude comparators and permission decoders, an
//! OR reduction to the combinational violation net, the registered
//! `access_violation` responding signal and the sticky status bank — out of
//! plain standard cells, and names every flip-flop after the architectural
//! bit it holds ([`crate::mpu::MpuBit::dff_name`]). That naming is the
//! cross-level register map: gate-level latched errors translate directly
//! into RTL state mutations and vice versa.
//!
//! The equivalence test module cross-checks the elaboration against the
//! functional model cycle-by-cycle on random stimulus.

use crate::mpu::{AccessReq, CfgWrite, MpuBit, MpuState, ADDR_BITS, CFG_ENABLE_INDEX, NUM_REGIONS};
use xlmc_netlist::{BusBuilder, CellKind, GateId, Netlist};

/// The elaborated MPU: netlist plus the cross-level register map.
#[derive(Debug, Clone)]
pub struct MpuNetlist {
    netlist: Netlist,
    /// The DFF of every bit, indexed by [`MpuBit::index`].
    dff_for_bit: Vec<GateId>,
    /// The bit of every gate, indexed by [`GateId::index`] (`None` for
    /// non-DFF gates).
    bit_for_dff: Vec<Option<MpuBit>>,
    /// The bit of each DFF, in [`Netlist::dffs`] order.
    dff_bits: Vec<MpuBit>,
    viol_comb: GateId,
    violation_q: GateId,
}

impl MpuNetlist {
    /// Elaborate the MPU into a gate netlist.
    ///
    /// # Panics
    ///
    /// Panics if the construction produces an invalid netlist — that would
    /// be a bug in the elaboration, not a user error.
    pub fn new() -> Self {
        let mut n = Netlist::new();
        let mut b = BusBuilder::new(&mut n);

        // Primary inputs, in the order `input_values` reproduces.
        let req_addr = b.input_bus("req_addr", ADDR_BITS);
        let req_kind = b.input_bus("req_kind", 2);
        let req_user = b.netlist().add_input("req_user");
        let req_valid = b.netlist().add_input("req_valid");
        let cfg_wen = b.netlist().add_input("cfg_wen");
        let cfg_index = b.input_bus("cfg_index", 4);
        let cfg_wdata = b.input_bus("cfg_wdata", ADDR_BITS);

        // Request pipeline registers (computation-type).
        let pipe_addr = b.dff_bus("pipe_addr", &req_addr);
        let pipe_kind = b.dff_bus("pipe_kind", &req_kind);
        let pipe_user = b.netlist().add_dff("pipe_user", req_user);
        let pipe_valid = b.netlist().add_dff("pipe_valid", req_valid);

        // Configuration registers with decoded write enables (memory-type).
        let mut bases = Vec::with_capacity(NUM_REGIONS);
        let mut limits = Vec::with_capacity(NUM_REGIONS);
        let mut perms = Vec::with_capacity(NUM_REGIONS);
        for r in 0..NUM_REGIONS {
            let sel_base = {
                let idx = b.const_bus((r * 3) as u64, 4);
                let eq = b.eq(&cfg_index, &idx);
                b.netlist().add_gate(CellKind::And, &[eq, cfg_wen])
            };
            bases.push(b.dff_bus_en(&format!("cfg_base{r}"), &cfg_wdata, sel_base));
            let sel_limit = {
                let idx = b.const_bus((r * 3 + 1) as u64, 4);
                let eq = b.eq(&cfg_index, &idx);
                b.netlist().add_gate(CellKind::And, &[eq, cfg_wen])
            };
            limits.push(b.dff_bus_en(&format!("cfg_limit{r}"), &cfg_wdata, sel_limit));
            let sel_perms = {
                let idx = b.const_bus((r * 3 + 2) as u64, 4);
                let eq = b.eq(&cfg_index, &idx);
                b.netlist().add_gate(CellKind::And, &[eq, cfg_wen])
            };
            perms.push(b.dff_bus_en(&format!("cfg_perms{r}"), &cfg_wdata[..4], sel_perms));
        }
        let enable = {
            let idx = b.const_bus(u64::from(CFG_ENABLE_INDEX), 4);
            let eq = b.eq(&cfg_index, &idx);
            let sel = b.netlist().add_gate(CellKind::And, &[eq, cfg_wen]);
            b.dff_bus_en("cfg_enable", &cfg_wdata[..1], sel)[0]
        };

        // Per-region check: in-range, kind permission, user permission.
        let k0 = pipe_kind[0];
        let k1 = pipe_kind[1];
        let nk0 = b.netlist().add_gate(CellKind::Not, &[k0]);
        let nk1 = b.netlist().add_gate(CellKind::Not, &[k1]);
        let is_read = b.netlist().add_gate(CellKind::And, &[nk1, nk0]);
        let is_write = b.netlist().add_gate(CellKind::And, &[nk1, k0]);
        let is_exec = b.netlist().add_gate(CellKind::And, &[k1, nk0]);
        let mut region_allows = Vec::with_capacity(NUM_REGIONS);
        for r in 0..NUM_REGIONS {
            let ge = b.uge(&pipe_addr, &bases[r]);
            let le = b.ule(&pipe_addr, &limits[r]);
            let in_range = b.netlist().add_gate(CellKind::And, &[ge, le]);
            let rd_ok = b.netlist().add_gate(CellKind::And, &[is_read, perms[r][0]]);
            let wr_ok = b
                .netlist()
                .add_gate(CellKind::And, &[is_write, perms[r][1]]);
            let ex_ok = b.netlist().add_gate(CellKind::And, &[is_exec, perms[r][2]]);
            let kind_ok = b.or_reduce(&[rd_ok, wr_ok, ex_ok]);
            let allow = b.and_reduce(&[in_range, kind_ok, perms[r][3]]);
            region_allows.push(allow);
        }
        let any_allow = b.or_reduce(&region_allows);
        let no_allow = b.netlist().add_gate(CellKind::Not, &[any_allow]);
        let viol_comb = {
            let v = b.and_reduce(&[pipe_valid, pipe_user, enable, no_allow]);
            b.netlist()
                .add_named_gate("access_violation_comb", CellKind::Buf, &[v])
        };

        // Responding-signal register and sticky status bank.
        let violation_q = b.netlist().add_dff("access_violation_q", viol_comb);
        let sticky_viol = {
            // sticky.D = sticky.Q | violation.Q (forward self-reference).
            let placeholder = b.netlist().add_const(false);
            let q = b.netlist().add_dff("sticky_viol", placeholder);
            let d = b.netlist().add_gate(CellKind::Or, &[q, violation_q]);
            b.netlist().set_fanin(q, vec![d]);
            q
        };
        let _ = sticky_viol;
        b.dff_bus_en("sticky_addr", &pipe_addr, viol_comb);
        b.dff_bus_en("sticky_kind", &pipe_kind, viol_comb);

        b.netlist().add_output("access_violation", violation_q);

        n.validate()
            .expect("MPU elaboration produced an invalid netlist");

        let mut bit_for_dff = vec![None; n.len()];
        let dff_for_bit: Vec<GateId> = MpuBit::all()
            .into_iter()
            .map(|bit| {
                let id = n
                    .resolve(&bit.dff_name())
                    .expect("elaboration must name every architectural bit");
                bit_for_dff[id.index()] = Some(bit);
                id
            })
            .collect();
        debug_assert_eq!(dff_for_bit.len(), n.dffs().len());
        let dff_bits = n
            .dffs()
            .iter()
            .map(|d| bit_for_dff[d.index()].expect("every DFF holds a bit"))
            .collect();

        Self {
            netlist: n,
            dff_for_bit,
            bit_for_dff,
            dff_bits,
            viol_comb,
            violation_q,
        }
    }

    /// The gate netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The combinational violation net — the responding signal the
    /// pre-characterization traces cones from.
    pub fn responding_signal(&self) -> GateId {
        self.viol_comb
    }

    /// The registered `access_violation` output.
    pub fn violation_register(&self) -> GateId {
        self.violation_q
    }

    /// The DFF holding an architectural bit.
    ///
    /// # Panics
    ///
    /// Panics for bits not in the map (cannot happen for [`MpuBit::all`]).
    pub fn dff(&self, bit: MpuBit) -> GateId {
        self.dff_for_bit[bit.index()]
    }

    /// The architectural bit a DFF holds, `None` for non-DFF gates and ids
    /// outside the netlist.
    pub fn bit_of(&self, dff: GateId) -> Option<MpuBit> {
        self.bit_for_dff.get(dff.index()).copied().flatten()
    }

    /// The bit of each DFF, in [`Netlist::dffs`] order.
    pub fn dff_bits(&self) -> &[MpuBit] {
        &self.dff_bits
    }

    /// Express an [`MpuState`] as a netlist state vector in
    /// [`Netlist::dffs`] order.
    pub fn state_vector(&self, state: &MpuState) -> Vec<bool> {
        let mut v = Vec::new();
        self.state_vector_into(state, &mut v);
        v
    }

    /// [`MpuNetlist::state_vector`] into a caller-owned buffer (cleared
    /// first).
    pub fn state_vector_into(&self, state: &MpuState, out: &mut Vec<bool>) {
        let packed = state.packed();
        out.clear();
        out.extend(
            self.dff_bits
                .iter()
                .map(|b| packed[b.index() / 64] >> (b.index() % 64) & 1 == 1),
        );
    }

    /// Reconstruct an [`MpuState`] from a netlist state vector.
    ///
    /// # Panics
    ///
    /// Panics when the vector length does not match the DFF count.
    pub fn state_from_vector(&self, vector: &[bool]) -> MpuState {
        assert_eq!(vector.len(), self.dff_bits.len());
        let mut state = MpuState::default();
        for (&bit, &v) in self.dff_bits.iter().zip(vector) {
            state.set_bit(bit, v);
        }
        state
    }

    /// The primary-input vector (in [`Netlist::inputs`] order) presenting a
    /// request and/or configuration write to the netlist.
    pub fn input_values(&self, req: Option<AccessReq>, cfg: Option<CfgWrite>) -> Vec<bool> {
        let mut v = Vec::with_capacity(self.netlist.inputs().len());
        self.input_values_into(req, cfg, &mut v);
        v
    }

    /// [`MpuNetlist::input_values`] into a caller-owned buffer (cleared
    /// first).
    pub fn input_values_into(
        &self,
        req: Option<AccessReq>,
        cfg: Option<CfgWrite>,
        v: &mut Vec<bool>,
    ) {
        let word = Self::input_word(req, cfg);
        debug_assert_eq!(self.netlist.inputs().len(), 2 * ADDR_BITS + 9);
        v.clear();
        v.extend((0..self.netlist.inputs().len()).map(|i| word >> i & 1 == 1));
    }

    /// The primary-input values as one word: bit `i` is the value of input
    /// `i` in [`Netlist::inputs`] order.
    #[inline]
    pub fn input_word(req: Option<AccessReq>, cfg: Option<CfgWrite>) -> u64 {
        const _: () = assert!(2 * ADDR_BITS + 9 <= 64, "the inputs fit one word");
        let (addr, kind, user, valid) = match req {
            Some(r) => (r.addr, r.kind.code(), r.user, true),
            None => (0, 0, false, false),
        };
        let (wen, index, wdata) = match cfg {
            Some(w) => (true, w.index, w.data),
            None => (false, 0, 0),
        };
        let mut word = u64::from(addr);
        let mut at = ADDR_BITS;
        for (value, width) in [
            (u64::from(kind), 2),
            (u64::from(user), 1),
            (u64::from(valid), 1),
            (u64::from(wen), 1),
            (u64::from(index), 4),
            (u64::from(wdata), ADDR_BITS),
        ] {
            word |= (value & ((1 << width) - 1)) << at;
            at += width;
        }
        word
    }
}

impl Default for MpuNetlist {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpu::tests::state_from_raw;
    use crate::mpu::{perm, AccessKind, MpuConfig, MpuRegion};
    use proptest::prelude::*;
    use xlmc_gatesim::cycle::CycleSim;

    fn sample_config() -> MpuConfig {
        MpuConfig {
            enable: true,
            regions: [
                MpuRegion {
                    base: 0x0000,
                    limit: 0x5fff,
                    perms: perm::R | perm::W | perm::X | perm::USER,
                },
                MpuRegion {
                    base: 0x6000,
                    limit: 0x6fff,
                    perms: perm::R | perm::USER,
                },
                MpuRegion::default(),
                MpuRegion {
                    base: 0xf000,
                    limit: 0xffff,
                    perms: perm::R | perm::W,
                },
            ],
        }
    }

    #[test]
    fn elaboration_is_wellformed_and_sized() {
        let m = MpuNetlist::new();
        let stats = m.netlist().stats();
        assert_eq!(stats.dffs, MpuBit::all().len());
        assert!(stats.combinational > 400, "got {}", stats.combinational);
        assert!(stats.area > 0.0);
    }

    #[test]
    fn state_vector_roundtrips() {
        let m = MpuNetlist::new();
        let mut state = MpuState {
            config: sample_config(),
            ..Default::default()
        };
        state.pipe_addr = 0xabcd;
        state.pipe_kind = 2;
        state.pipe_user = true;
        state.pipe_valid = true;
        state.violation = true;
        state.sticky_addr = 0x1234;
        let v = m.state_vector(&state);
        assert_eq!(m.state_from_vector(&v), state);
    }

    #[test]
    fn every_dff_maps_to_a_bit_and_back() {
        let m = MpuNetlist::new();
        for &d in m.netlist().dffs() {
            let bit = m.bit_of(d).expect("unmapped dff");
            assert_eq!(m.dff(bit), d);
        }
    }

    #[test]
    fn dense_register_map_round_trips_every_bit() {
        let m = MpuNetlist::new();
        for bit in MpuBit::all() {
            let d = m.dff(bit);
            assert_eq!(m.netlist().gate(d).kind, CellKind::Dff, "{bit:?}");
            assert_eq!(m.bit_of(d), Some(bit));
        }
    }

    #[test]
    fn dense_register_map_rejects_non_dff_and_foreign_ids() {
        let m = MpuNetlist::new();
        for (id, gate) in m.netlist().iter() {
            if gate.kind != CellKind::Dff {
                assert_eq!(m.bit_of(id), None, "{id}");
            }
        }
        let len = m.netlist().len() as u32;
        for id in [len, len + 1, u32::MAX] {
            assert_eq!(m.bit_of(GateId(id)), None, "g{id}");
        }
    }

    proptest! {
        #[test]
        fn state_vectors_round_trip_random_states(words in any::<[u64; 4]>()) {
            let m = MpuNetlist::new();
            let state = state_from_raw(words);
            let mut v = vec![true; 3];
            m.state_vector_into(&state, &mut v);
            // The per-DFF lookup the DFF-ordered table replaces.
            let direct: Vec<bool> = m
                .netlist()
                .dffs()
                .iter()
                .map(|&d| state.bit(m.bit_of(d).unwrap()))
                .collect();
            prop_assert_eq!(&v, &direct);
            let mut masked = state;
            for region in masked.config.regions.iter_mut() {
                region.perms &= perm::MASK;
            }
            masked.pipe_kind &= 3;
            masked.sticky_kind &= 3;
            prop_assert_eq!(m.state_from_vector(&v), masked);
        }
    }

    /// The core cross-level consistency check: the netlist and the
    /// functional model agree cycle-by-cycle on random stimulus.
    #[test]
    fn equivalence_with_functional_model() {
        let m = MpuNetlist::new();
        let sim = CycleSim::new(m.netlist()).unwrap();
        let mut rtl = MpuState::default();
        let mut gate_state = m.state_vector(&rtl);

        // Deterministic pseudo-random stimulus covering requests, idle
        // cycles and configuration writes.
        let mut rng_state = 0x12345678u64;
        let mut rng = move || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng_state >> 33) as u32
        };
        for cycle in 0..600 {
            let r = rng();
            let req = if r % 4 != 0 {
                Some(AccessReq {
                    addr: (rng() & 0xffff) as u16,
                    kind: match rng() % 3 {
                        0 => AccessKind::Read,
                        1 => AccessKind::Write,
                        _ => AccessKind::Exec,
                    },
                    user: rng() % 2 == 0,
                })
            } else {
                None
            };
            let cfg = if rng() % 5 == 0 {
                Some(CfgWrite {
                    index: (rng() % 14) as u8,
                    data: (rng() & 0xffff) as u16,
                })
            } else {
                None
            };

            let inputs = m.input_values(req, cfg);
            let cv = sim.eval(m.netlist(), &gate_state, &inputs);

            // Combinational responding signal must agree.
            assert_eq!(
                cv.value(m.responding_signal()),
                rtl.viol_comb(),
                "viol_comb mismatch at cycle {cycle}"
            );

            rtl.step(req, cfg);
            gate_state = cv.next_state().to_vec();
            let expect = m.state_vector(&rtl);
            assert_eq!(gate_state, expect, "state mismatch after cycle {cycle}");
        }
    }

    #[test]
    fn netlist_detects_violation_like_rtl() {
        let m = MpuNetlist::new();
        let sim = CycleSim::new(m.netlist()).unwrap();
        let mut rtl = MpuState {
            config: sample_config(),
            ..Default::default()
        };
        let mut state = m.state_vector(&rtl);
        // Present an illegal user write to 0x7000, then an idle cycle.
        let illegal = AccessReq {
            addr: 0x7000,
            kind: AccessKind::Write,
            user: true,
        };
        for (req, expect_viol_q) in [(Some(illegal), false), (None, false), (None, true)] {
            let inputs = m.input_values(req, None);
            let cv = sim.eval(m.netlist(), &state, &inputs);
            assert_eq!(
                state[m
                    .netlist()
                    .dffs()
                    .iter()
                    .position(|&d| d == m.violation_register())
                    .unwrap()],
                expect_viol_q
            );
            rtl.step(req, None);
            state = cv.next_state().to_vec();
        }
        // The violation register clears once the pipeline moves on, but the
        // sticky flag records that it fired.
        assert!(rtl.sticky_violation);
    }

    /// The responding signal's 50 fanin frames obey the frame recurrence
    /// on the stock MPU: frame `i + 1` is the union of the single-seed
    /// closures (frame 0 of a depth-0 cone, never a copied frame) of the D
    /// drivers of frame `i`'s registers.
    #[test]
    fn responding_signal_cone_frames_follow_the_register_recurrence() {
        let m = MpuNetlist::new();
        let n = m.netlist();
        let cones = xlmc_netlist::cones::fanin_cone(n, m.responding_signal(), 49);
        assert_eq!(cones.frame_indices(), (0..=49).collect::<Vec<_>>());
        let mut last: Option<(&[GateId], Vec<GateId>)> = None;
        for i in 0..49 {
            let frame = cones.frame(i).as_slice();
            let want = match last.take() {
                Some((prev, want)) if prev == frame => want,
                _ => {
                    let mut want: Vec<GateId> = cones
                        .registers_in_frame(n, i)
                        .iter()
                        .flat_map(|&d| {
                            let driver = n.gate(d).fanin[0];
                            xlmc_netlist::cones::fanin_cone(n, driver, 0)
                                .frame(0)
                                .as_slice()
                                .to_vec()
                        })
                        .collect();
                    want.sort_unstable();
                    want.dedup();
                    want
                }
            };
            assert_eq!(cones.frame(i + 1).as_slice(), &want[..], "frame {}", i + 1);
            last = Some((frame, want));
        }
    }

    #[test]
    fn responding_signal_cone_contains_config_and_pipe_registers() {
        let m = MpuNetlist::new();
        let cones = xlmc_netlist::cones::fanin_cone(m.netlist(), m.responding_signal(), 1);
        let frame0 = cones.frame(0);
        assert!(frame0.contains(m.dff(MpuBit::Enable)));
        assert!(frame0.contains(m.dff(MpuBit::PipeAddr(0))));
        assert!(frame0.contains(m.dff(MpuBit::Base(0, 15))));
        assert!(frame0.contains(m.dff(MpuBit::Perms(3, 3))));
        // Sticky registers are in the fanout, not the fanin.
        assert!(!frame0.contains(m.dff(MpuBit::StickyViol)));
    }
}
