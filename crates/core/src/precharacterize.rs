//! The complete system pre-characterization (paper §4).
//!
//! Orchestrates the three steps on the synthetic benchmark:
//!
//! 1. responding-signal cone extraction → [`SampleSpace`],
//! 2. switching-signature correlation → [`CorrelationData`],
//! 3. register lifetime/contamination → [`RegisterCharacterization`],
//!
//! and derives the per-cell error lifetime `L(g)` used by the sampling
//! distributions: a register's own lifetime, or, for a combinational cell,
//! the maximum lifetime over the registers that can latch its error (the
//! registers in its DFF-free forward closure).

use crate::correlation::CorrelationData;
use crate::lifetime::{default_sample_cycles, RegisterCharacterization, RegisterKind};
use crate::model::SystemModel;
use crate::space::SampleSpace;
use crate::trace::TraceSink;
use xlmc_netlist::{CellKind, GateId};
use xlmc_soc::golden::GoldenRun;
use xlmc_soc::workloads;

/// The full pre-characterization product.
#[derive(Debug, Clone)]
pub struct Precharacterization {
    /// Step 1: the per-timing-distance sample space.
    pub space: SampleSpace,
    /// Step 2: frame-aligned bit-flip correlations.
    pub correlation: CorrelationData,
    /// Step 3: register lifetime/contamination and classification.
    pub registers: RegisterCharacterization,
    /// Derived `L(g)` for every sample-space cell, indexed by
    /// [`GateId::index`] (0 off the space).
    cell_lifetime: Vec<u32>,
    /// Derived responding-signal suppression correlation for every
    /// sample-space cell (registers: their own measured fraction;
    /// combinational cells: the maximum over their latch targets), indexed
    /// like `cell_lifetime`.
    cell_suppress: Vec<f64>,
    /// Length of the synthetic golden run used.
    pub synthetic_cycles: u64,
}

impl Precharacterization {
    /// Run the pre-characterization on the built-in synthetic benchmark.
    ///
    /// `t_max` bounds the timing-distance range; `halo_radius` expands the
    /// spatial sample space around the cones (see [`SampleSpace::build`]).
    pub fn run(model: &SystemModel, t_max: i64, halo_radius: f64) -> Self {
        Self::run_traced(model, t_max, halo_radius, &TraceSink::disabled())
    }

    /// [`Self::run`], with each pre-characterization step recorded as a
    /// span on `sink` (`cat = "prechar"`).
    pub fn run_traced(model: &SystemModel, t_max: i64, halo_radius: f64, sink: &TraceSink) -> Self {
        let golden = {
            let _span = sink.span("prechar", "synthetic-golden");
            let synth = workloads::synthetic_precharacterization();
            GoldenRun::record(&synth.program, 20_000, 64)
        };
        Self::run_with_golden_traced(model, &golden, t_max, halo_radius, sink)
    }

    /// Run the pre-characterization against a caller-provided synthetic
    /// golden run (for custom stimulus).
    pub fn run_with_golden(
        model: &SystemModel,
        synthetic: &GoldenRun,
        t_max: i64,
        halo_radius: f64,
    ) -> Self {
        Self::run_with_golden_traced(model, synthetic, t_max, halo_radius, &TraceSink::disabled())
    }

    /// [`Self::run_with_golden`], with each step spanned on `sink`.
    pub fn run_with_golden_traced(
        model: &SystemModel,
        synthetic: &GoldenRun,
        t_max: i64,
        halo_radius: f64,
        sink: &TraceSink,
    ) -> Self {
        let space = {
            let _span = sink.span("prechar", "cones");
            SampleSpace::build(model, t_max, halo_radius)
        };
        let correlation = {
            let _span = sink.span("prechar", "signatures+correlation");
            CorrelationData::compute(model, synthetic, &space)
        };
        let registers = {
            let _span = sink.span("prechar", "lifetime");
            RegisterCharacterization::measure(synthetic, &default_sample_cycles(synthetic, 5))
        };
        let (cell_lifetime, cell_suppress) = {
            let _span = sink.span("prechar", "classification");
            derive_cell_characters(model, &space, &registers)
        };
        Self {
            space,
            correlation,
            registers,
            cell_lifetime,
            cell_suppress,
            synthetic_cycles: synthetic.cycles,
        }
    }

    /// The error lifetime `L(g)` of a sample-space cell (0 for cells whose
    /// errors reach no register).
    pub fn cell_lifetime(&self, g: GateId) -> u32 {
        self.cell_lifetime.get(g.index()).copied().unwrap_or(0)
    }

    /// The injection-measured responding-signal *suppression* correlation
    /// of a sample-space cell: for a register its own measured fraction,
    /// for a combinational cell the maximum over the registers that can
    /// latch its transient (its DFF-free forward closure).
    pub fn cell_suppress(&self, g: GateId) -> f64 {
        self.cell_suppress.get(g.index()).copied().unwrap_or(0.0)
    }

    /// The classification of a DFF cell, `None` for non-register cells.
    pub fn dff_kind(&self, model: &SystemModel, g: GateId) -> Option<RegisterKind> {
        model.mpu.bit_of(g).map(|bit| self.registers.kind(bit))
    }
}

/// `L(g)` and the suppression correlation for every sample-space cell:
/// registers carry their measured values; combinational cells inherit the
/// maximum over the registers in their DFF-free forward closure (the
/// registers their transient can latch into).
///
/// One memoized pass: a combinational cell's value is the maximum over its
/// fanouts of a register fanout's measured value or a combinational
/// fanout's own value — the same maximum over the same register set as a
/// walk of the closure. Both tables are indexed by [`GateId::index`] and
/// hold 0 off the sample space.
fn derive_cell_characters(
    model: &SystemModel,
    space: &SampleSpace,
    registers: &RegisterCharacterization,
) -> (Vec<u32>, Vec<f64>) {
    let netlist = model.mpu.netlist();
    let fanouts = netlist.fanouts();
    let measured = |g: GateId| {
        model
            .mpu
            .bit_of(g)
            .map(|b| {
                let c = registers.bit(b);
                (c.lifetime, c.rs_suppress_fraction)
            })
            .unwrap_or((0, 0.0))
    };
    let mut memo: Vec<Option<(u32, f64)>> = vec![None; netlist.len()];
    let mut stack = Vec::new();
    let mut lifetimes = vec![0; netlist.len()];
    let mut suppress = vec![0.0; netlist.len()];
    for g in space.all_cells() {
        // Post-order over the DFF-free forward closure (the combinational
        // graph is acyclic, so the walk ends at registers and sinks).
        stack.push(g);
        while let Some(&id) = stack.last() {
            if memo[id.index()].is_some() {
                stack.pop();
                continue;
            }
            if netlist.gate(id).kind == CellKind::Dff {
                memo[id.index()] = Some(measured(id));
                stack.pop();
                continue;
            }
            let depth = stack.len();
            stack.extend(fanouts.of(id).iter().filter(|c| memo[c.index()].is_none()));
            if stack.len() > depth {
                continue;
            }
            let best = fanouts.of(id).iter().fold((0u32, 0.0f64), |(l, s), c| {
                let (cl, cs) = memo[c.index()].expect("fanouts resolved first");
                (l.max(cl), s.max(cs))
            });
            memo[id.index()] = Some(best);
            stack.pop();
        }
        let (l, s) = memo[g.index()].expect("resolved above");
        lifetimes[g.index()] = l;
        suppress[g.index()] = s;
    }
    (lifetimes, suppress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::LIFETIME_CAP;
    use xlmc_soc::MpuBit;

    /// The per-cell closure walk the memoized pass replaces: a fresh
    /// `HashSet` BFS from every combinational cell. Kept as the test
    /// oracle.
    fn reference_character(
        model: &SystemModel,
        registers: &RegisterCharacterization,
        g: GateId,
    ) -> (u32, f64) {
        use std::collections::{HashSet, VecDeque};
        let netlist = model.mpu.netlist();
        let fanouts = netlist.fanouts();
        if netlist.gate(g).kind == CellKind::Dff {
            return model
                .mpu
                .bit_of(g)
                .map(|b| {
                    let c = registers.bit(b);
                    (c.lifetime, c.rs_suppress_fraction)
                })
                .unwrap_or((0, 0.0));
        }
        let mut best_l = 0u32;
        let mut best_s = 0.0f64;
        let mut seen: HashSet<GateId> = HashSet::new();
        let mut queue: VecDeque<GateId> = VecDeque::from([g]);
        while let Some(id) = queue.pop_front() {
            if !seen.insert(id) {
                continue;
            }
            if netlist.gate(id).kind == CellKind::Dff {
                if let Some(bit) = model.mpu.bit_of(id) {
                    let c = registers.bit(bit);
                    best_l = best_l.max(c.lifetime);
                    best_s = best_s.max(c.rs_suppress_fraction);
                }
                continue;
            }
            for &c in fanouts.of(id) {
                queue.push_back(c);
            }
        }
        (best_l, best_s)
    }

    #[test]
    fn memoized_characters_equal_the_per_cell_walk() {
        let model = SystemModel::with_defaults().unwrap();
        for (t_max, halo) in [(8, 0.0), (50, 1.0)] {
            let p = Precharacterization::run(&model, t_max, halo);
            let cells = p.space.all_cells();
            for &g in &cells {
                let (l, s) = reference_character(&model, &p.registers, g);
                assert_eq!(
                    (p.cell_lifetime(g), p.cell_suppress(g).to_bits()),
                    (l, s.to_bits()),
                    "{g} at t_max {t_max}, halo {halo}"
                );
            }
            // Cells off the space keep the old map's defaults.
            let off = model
                .mpu
                .netlist()
                .iter()
                .map(|(id, _)| id)
                .find(|g| cells.binary_search(g).is_err())
                .expect("the space is smaller than the netlist");
            assert_eq!((p.cell_lifetime(off), p.cell_suppress(off)), (0, 0.0));
            assert_eq!(p.cell_lifetime(GateId(u32::MAX)), 0);
        }
    }

    fn prechar() -> (SystemModel, Precharacterization) {
        let model = SystemModel::with_defaults().unwrap();
        let p = Precharacterization::run(&model, 8, 0.0);
        (model, p)
    }

    #[test]
    fn register_lifetimes_flow_through_to_cells() {
        let (model, p) = prechar();
        // An unused config register keeps its capped lifetime.
        let unused = model.mpu.dff(MpuBit::Base(2, 9));
        assert_eq!(p.cell_lifetime(unused), LIFETIME_CAP);
        // A pipeline register has a short one.
        let pipe = model.mpu.dff(MpuBit::PipeAddr(2));
        assert!(p.cell_lifetime(pipe) <= 5);
    }

    #[test]
    fn comb_cells_inherit_downstream_register_lifetimes() {
        let (model, p) = prechar();
        // The hold mux in front of an unused config register latches into
        // that register: its lifetime must be the register's.
        let netlist = model.mpu.netlist();
        let unused = model.mpu.dff(MpuBit::Base(2, 9));
        let hold_mux = netlist.gate(unused).fanin[0];
        assert_eq!(p.cell_lifetime(hold_mux), LIFETIME_CAP);
    }

    #[test]
    fn dff_kind_queries_classification() {
        let (model, p) = prechar();
        let pipe = model.mpu.dff(MpuBit::PipeValid);
        assert_eq!(p.dff_kind(&model, pipe), Some(RegisterKind::Computation));
        let unused = model.mpu.dff(MpuBit::Perms(3, 2));
        assert_eq!(p.dff_kind(&model, unused), Some(RegisterKind::Memory));
        // Non-register cells have no kind.
        let rs = model.mpu.responding_signal();
        assert_eq!(p.dff_kind(&model, rs), None);
    }

    #[test]
    fn every_space_cell_has_a_lifetime_entry() {
        let (_, p) = prechar();
        for &g in &p.space.all_cells() {
            // Entry exists (may be zero for dead-end cells).
            let _ = p.cell_lifetime(g);
        }
        assert!(p.synthetic_cycles > 100);
    }
}
