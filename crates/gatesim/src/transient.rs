//! Single-event-transient injection, propagation and latching (paper §5.3).
//!
//! A radiation strike produces voltage transients at the outputs of every
//! impacted cell. During the fault-injection cycle, the gate-level
//! simulation propagates these pulses through the combinational logic in
//! topological order (Figure 6a) and applies the three classical masking
//! mechanisms:
//!
//! * **logical masking** — a pulse only passes a gate that is sensitized to
//!   the pulsing input(s) under the cycle's stable values,
//! * **electrical masking** — the pulse narrows at each level and dies once
//!   its duration falls below a threshold,
//! * **latching-window masking** — a pulse reaching a flip-flop's D pin is
//!   captured only if it overlaps the setup/hold window around the clock
//!   edge (Figure 6b).
//!
//! Strikes on sequential cells (DFFs) are modeled as single-event upsets:
//! the stored bit flips directly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use xlmc_netlist::{CellKind, GateId, Netlist, NetlistError, Topology};

use crate::cycle::CycleValues;

/// Electrical and timing parameters of the transient model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Clock period in picoseconds.
    pub clock_period_ps: f64,
    /// Setup time of the flip-flops.
    pub setup_ps: f64,
    /// Hold time of the flip-flops.
    pub hold_ps: f64,
    /// Width of the transient generated at a struck cell output.
    pub initial_duration_ps: f64,
    /// Duration lost per traversed logic level (electrical attenuation).
    pub attenuation_ps: f64,
    /// Pulses narrower than this can no longer propagate.
    pub min_duration_ps: f64,
}

impl Default for TransientConfig {
    fn default() -> Self {
        Self {
            clock_period_ps: 1200.0,
            setup_ps: 80.0,
            hold_ps: 50.0,
            initial_duration_ps: 300.0,
            attenuation_ps: 8.0,
            min_duration_ps: 12.0,
        }
    }
}

/// A voltage pulse at a gate output: `[start, start + duration]` ps after
/// the launching clock edge.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pulse {
    start: f64,
    duration: f64,
}

/// The result of one strike simulation.
#[derive(Debug, Clone, Default)]
pub struct StrikeOutcome {
    /// DFFs whose *next-state* bit is flipped by a latched transient.
    pub latched_dffs: Vec<GateId>,
    /// DFFs struck directly (SEU): their stored bit flips.
    pub upset_dffs: Vec<GateId>,
    /// Number of combinational gates that carried a propagating pulse.
    pub pulses_propagated: usize,
    /// Number of gates popped from the propagation worklist (visited,
    /// whether or not a pulse survived the masking checks).
    pub gates_visited: usize,
}

impl StrikeOutcome {
    /// All registers in error at the end of the injection cycle
    /// (deduplicated, sorted): direct upsets plus latched transients.
    pub fn faulty_registers(&self) -> Vec<GateId> {
        let mut all = Vec::new();
        self.faulty_registers_into(&mut all);
        all
    }

    /// [`StrikeOutcome::faulty_registers`] into a caller-owned buffer
    /// (cleared first).
    pub fn faulty_registers_into(&self, out: &mut Vec<GateId>) {
        out.clear();
        out.extend_from_slice(&self.latched_dffs);
        out.extend_from_slice(&self.upset_dffs);
        out.sort_unstable();
        out.dedup();
    }

    /// Whether the strike was completely masked (no register in error).
    pub fn is_masked(&self) -> bool {
        self.latched_dffs.is_empty() && self.upset_dffs.is_empty()
    }
}

/// Reusable buffers for [`TransientSim::strike_with`].
///
/// One scratch per worker thread; after the first few strikes no call
/// touches the allocator. The pulse array is reset through the `touched`
/// list, so the per-strike cost scales with the struck fanout cone, not
/// with the netlist.
#[derive(Debug, Default)]
pub struct TransientScratch {
    pulses: Vec<Option<Pulse>>,
    /// Gates whose `pulses` entry is `Some` (for O(cone) reset).
    touched: Vec<GateId>,
    /// Pending gates, popped in topological-rank order.
    queue: BinaryHeap<Reverse<(u32, GateId)>>,
    queued: Vec<bool>,
    enqueued: Vec<GateId>,
    ins: Vec<bool>,
    pulsing: Vec<usize>,
}

/// Transient simulator bound to one netlist (topological ranks and the
/// combinational fanout CSR cached).
#[derive(Debug, Clone)]
pub struct TransientSim {
    config: TransientConfig,
    /// Position of each combinational gate in the topological order
    /// (`u32::MAX` for sources and DFFs).
    rank: Vec<u32>,
    /// CSR adjacency: combinational consumers of each gate.
    fanout_offsets: Vec<u32>,
    fanout_targets: Vec<GateId>,
}

impl TransientSim {
    /// Prepare a transient simulator for `netlist` with `config`.
    ///
    /// # Errors
    ///
    /// Fails when the netlist has a combinational loop.
    pub fn new(netlist: &Netlist, config: TransientConfig) -> Result<Self, NetlistError> {
        let topo = Topology::new(netlist)?;
        let n = netlist.len();
        let mut rank = vec![u32::MAX; n];
        for (r, &id) in topo.order().iter().enumerate() {
            rank[id.index()] = r as u32;
        }
        // Combinational fanout edges, CSR layout. DFF consumers are absent
        // by construction (latching is checked at the D pins afterwards).
        let mut offsets = vec![0u32; n + 1];
        for &id in topo.order() {
            for f in &netlist.gate(id).fanin {
                offsets[f.index() + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.clone();
        let mut targets = vec![GateId(0); offsets[n] as usize];
        for &id in topo.order() {
            for f in &netlist.gate(id).fanin {
                targets[next[f.index()] as usize] = id;
                next[f.index()] += 1;
            }
        }
        Ok(Self {
            config,
            rank,
            fanout_offsets: offsets,
            fanout_targets: targets,
        })
    }

    /// Enqueue the combinational consumers of `g` that are not yet queued.
    pub(crate) fn enqueue_fanouts(
        &self,
        g: GateId,
        queue: &mut BinaryHeap<Reverse<(u32, GateId)>>,
        queued: &mut [bool],
        enqueued: &mut Vec<GateId>,
    ) {
        let lo = self.fanout_offsets[g.index()] as usize;
        let hi = self.fanout_offsets[g.index() + 1] as usize;
        for &t in &self.fanout_targets[lo..hi] {
            if !queued[t.index()] {
                queued[t.index()] = true;
                enqueued.push(t);
                queue.push(Reverse((self.rank[t.index()], t)));
            }
        }
    }

    /// The configured model parameters.
    pub fn config(&self) -> &TransientConfig {
        &self.config
    }

    /// Simulate a strike on `struck` cells during a cycle with stable values
    /// `values` (from [`crate::cycle::CycleSim::eval`] on the same netlist).
    ///
    /// `strike_time_ps` is the moment of the particle hit within the cycle
    /// (0 = launching clock edge). The radiation moment is part of the
    /// attack's intrinsic uncertainty, so callers typically sample it
    /// uniformly over the clock period — pulses only latch when
    /// `strike_time + path delay` lands in the capture window, which is the
    /// latching-window masking of Figure 6(b).
    ///
    /// Struck DFFs become direct upsets (the storage node flips regardless
    /// of timing); struck combinational cells launch transients that are
    /// propagated and checked against the latching window at every reached
    /// flip-flop.
    pub fn strike(
        &self,
        netlist: &Netlist,
        values: &CycleValues,
        struck: &[GateId],
        strike_time_ps: f64,
    ) -> StrikeOutcome {
        let mut scratch = TransientScratch::default();
        let mut outcome = StrikeOutcome::default();
        self.strike_with(
            netlist,
            values,
            struck,
            strike_time_ps,
            &mut scratch,
            &mut outcome,
        );
        outcome
    }

    /// [`TransientSim::strike`] with caller-owned buffers.
    ///
    /// `outcome` is cleared and refilled; `scratch` is reset on exit. Only
    /// the struck fanout cone is visited: propagation runs a rank-ordered
    /// worklist over the precomputed fanout CSR instead of sweeping the
    /// whole topological order, and allocates nothing once the scratch is
    /// warm.
    pub fn strike_with(
        &self,
        netlist: &Netlist,
        values: &CycleValues,
        struck: &[GateId],
        strike_time_ps: f64,
        scratch: &mut TransientScratch,
        outcome: &mut StrikeOutcome,
    ) {
        outcome.latched_dffs.clear();
        outcome.upset_dffs.clear();
        outcome.pulses_propagated = 0;
        outcome.gates_visited = 0;

        let n = netlist.len();
        if scratch.pulses.len() < n {
            scratch.pulses.resize(n, None);
            scratch.queued.resize(n, false);
        }
        debug_assert!(scratch.touched.is_empty() && scratch.queue.is_empty());

        for &g in struck {
            let gate = netlist.gate(g);
            match gate.kind {
                CellKind::Dff => outcome.upset_dffs.push(g),
                CellKind::Input | CellKind::Const(_) | CellKind::Output => {}
                _ => {
                    if scratch.pulses[g.index()].is_none() {
                        scratch.touched.push(g);
                        // Every seeded gate is combinational, i.e. present in
                        // the topological order, so it carries a pulse.
                        outcome.pulses_propagated += 1;
                    }
                    scratch.pulses[g.index()] = Some(Pulse {
                        start: strike_time_ps,
                        duration: self.config.initial_duration_ps,
                    });
                }
            }
        }

        // Propagate in rank order so every gate sees its final fanin pulses.
        // A struck gate keeps its own pulse (the strike dominates anything
        // arriving from fanins).
        for i in 0..scratch.touched.len() {
            self.enqueue_fanouts(
                scratch.touched[i],
                &mut scratch.queue,
                &mut scratch.queued,
                &mut scratch.enqueued,
            );
        }
        while let Some(Reverse((_, id))) = scratch.queue.pop() {
            outcome.gates_visited += 1;
            if scratch.pulses[id.index()].is_some() {
                continue;
            }
            let gate = netlist.gate(id);
            scratch.pulsing.clear();
            for (i, f) in gate.fanin.iter().enumerate() {
                if scratch.pulses[f.index()].is_some() {
                    scratch.pulsing.push(i);
                }
            }
            if scratch.pulsing.is_empty() {
                continue;
            }
            // Logical masking: does flipping the pulsing inputs flip the
            // output under the cycle's stable side-input values?
            scratch.ins.clear();
            scratch
                .ins
                .extend(gate.fanin.iter().map(|f| values.value(*f)));
            let nominal = gate.kind.eval(&scratch.ins);
            for &i in &scratch.pulsing {
                scratch.ins[i] = !scratch.ins[i];
            }
            let flipped = gate.kind.eval(&scratch.ins);
            if flipped == nominal {
                continue;
            }
            // Electrical masking: the pulse narrows at each level.
            let max_duration = scratch
                .pulsing
                .iter()
                .map(|&i| scratch.pulses[gate.fanin[i].index()].unwrap().duration)
                .fold(0.0f64, f64::max);
            let duration = max_duration - self.config.attenuation_ps;
            if duration < self.config.min_duration_ps {
                continue;
            }
            let start = scratch
                .pulsing
                .iter()
                .map(|&i| scratch.pulses[gate.fanin[i].index()].unwrap().start)
                .fold(0.0f64, f64::max)
                + gate.kind.delay_ps();
            scratch.pulses[id.index()] = Some(Pulse { start, duration });
            scratch.touched.push(id);
            outcome.pulses_propagated += 1;
            self.enqueue_fanouts(
                id,
                &mut scratch.queue,
                &mut scratch.queued,
                &mut scratch.enqueued,
            );
        }

        // Latching-window masking at each DFF's D pin.
        let window_lo = self.config.clock_period_ps - self.config.setup_ps;
        let window_hi = self.config.clock_period_ps + self.config.hold_ps;
        for &dff in netlist.dffs() {
            let d = netlist.gate(dff).fanin[0];
            if let Some(p) = scratch.pulses[d.index()] {
                let pulse_lo = p.start;
                let pulse_hi = p.start + p.duration;
                if pulse_lo <= window_hi && pulse_hi >= window_lo {
                    outcome.latched_dffs.push(dff);
                }
            }
        }
        outcome.latched_dffs.sort_unstable();

        for &g in &scratch.touched {
            scratch.pulses[g.index()] = None;
        }
        scratch.touched.clear();
        for &g in &scratch.enqueued {
            scratch.queued[g.index()] = false;
        }
        scratch.enqueued.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::CycleSim;

    /// Config where any pulse reaching a D pin latches (huge window, no
    /// attenuation) so tests can focus on one mechanism at a time.
    fn permissive() -> TransientConfig {
        TransientConfig {
            clock_period_ps: 1_000.0,
            setup_ps: 1_000.0,
            hold_ps: 1_000.0,
            initial_duration_ps: 500.0,
            attenuation_ps: 0.0,
            min_duration_ps: 1.0,
        }
    }

    /// buf chain: a -> g -> dff
    fn chain_to_dff() -> (Netlist, GateId, GateId) {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let g = n.add_gate(CellKind::Buf, &[a]);
        let q = n.add_dff("q", g);
        (n, g, q)
    }

    #[test]
    fn pulse_reaches_and_latches() {
        let (n, g, q) = chain_to_dff();
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[false], &[false]);
        let ts = TransientSim::new(&n, permissive()).unwrap();
        let out = ts.strike(&n, &cv, &[g], 0.0);
        assert_eq!(out.latched_dffs, vec![q]);
        assert!(out.upset_dffs.is_empty());
        assert!(!out.is_masked());
        assert_eq!(out.faulty_registers(), vec![q]);
    }

    #[test]
    fn struck_register_is_direct_upset() {
        let (n, _, q) = chain_to_dff();
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[false], &[false]);
        let ts = TransientSim::new(&n, permissive()).unwrap();
        let out = ts.strike(&n, &cv, &[q], 0.0);
        assert_eq!(out.upset_dffs, vec![q]);
        assert!(out.latched_dffs.is_empty());
    }

    #[test]
    fn logical_masking_blocks_unsensitized_path() {
        // and(a, b) with b = 0: a pulse on the a-side buf is masked.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let buf = n.add_gate(CellKind::Buf, &[a]);
        let g = n.add_gate(CellKind::And, &[buf, b]);
        let q = n.add_dff("q", g);
        let _ = q;
        let sim = CycleSim::new(&n).unwrap();
        let ts = TransientSim::new(&n, permissive()).unwrap();

        let cv = sim.eval(&n, &[false], &[true, false]); // b = 0 blocks
        assert!(ts.strike(&n, &cv, &[buf], 0.0).is_masked());

        let cv = sim.eval(&n, &[false], &[true, true]); // b = 1 sensitizes
        assert!(!ts.strike(&n, &cv, &[buf], 0.0).is_masked());
    }

    #[test]
    fn electrical_masking_kills_narrow_pulses() {
        // A long buffer chain with aggressive attenuation.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let mut prev = a;
        let mut first = None;
        for _ in 0..10 {
            prev = n.add_gate(CellKind::Buf, &[prev]);
            first.get_or_insert(prev);
        }
        n.add_dff("q", prev);
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[false], &[false]);
        let cfg = TransientConfig {
            initial_duration_ps: 50.0,
            attenuation_ps: 10.0,
            min_duration_ps: 20.0,
            ..permissive()
        };
        let ts = TransientSim::new(&n, cfg).unwrap();
        // Struck at the head of the chain: dies after ~3 levels.
        let out = ts.strike(&n, &cv, &[first.unwrap()], 0.0);
        assert!(out.is_masked());
        // Struck adjacent to the flop: survives.
        let out = ts.strike(&n, &cv, &[prev], 0.0);
        assert!(!out.is_masked());
    }

    #[test]
    fn latching_window_masks_early_pulses() {
        // Pulse at t≈25..75 ps; window at [950, 1030]: no overlap -> masked.
        let (n, g, _) = chain_to_dff();
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[false], &[false]);
        let cfg = TransientConfig {
            clock_period_ps: 1_000.0,
            setup_ps: 50.0,
            hold_ps: 30.0,
            initial_duration_ps: 50.0,
            attenuation_ps: 0.0,
            min_duration_ps: 1.0,
        };
        let ts = TransientSim::new(&n, cfg).unwrap();
        assert!(ts.strike(&n, &cv, &[g], 0.0).is_masked());

        // A wide pulse spanning into the window latches.
        let cfg_wide = TransientConfig {
            initial_duration_ps: 2_000.0,
            ..cfg
        };
        let ts = TransientSim::new(&n, cfg_wide).unwrap();
        assert!(!ts.strike(&n, &cv, &[g], 0.0).is_masked());
    }

    #[test]
    fn multi_cell_strike_can_fan_to_several_registers() {
        // One struck gate fans out to two flops; also strike a third flop.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let g = n.add_gate(CellKind::Not, &[a]);
        let q1 = n.add_dff("q1", g);
        let q2 = n.add_dff("q2", g);
        let q3 = n.add_dff("q3", a);
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[false; 3], &[false]);
        let ts = TransientSim::new(&n, permissive()).unwrap();
        let out = ts.strike(&n, &cv, &[g, q3], 0.0);
        assert_eq!(out.latched_dffs, vec![q1, q2]);
        assert_eq!(out.upset_dffs, vec![q3]);
        assert_eq!(out.faulty_registers(), vec![q1, q2, q3]);
    }

    #[test]
    fn xor_always_sensitizes() {
        // XOR propagates regardless of the side input value.
        for side in [false, true] {
            let mut n = Netlist::new();
            let a = n.add_input("a");
            let b = n.add_input("b");
            let buf = n.add_gate(CellKind::Buf, &[a]);
            let g = n.add_gate(CellKind::Xor, &[buf, b]);
            n.add_dff("q", g);
            let sim = CycleSim::new(&n).unwrap();
            let cv = sim.eval(&n, &[false], &[false, side]);
            let ts = TransientSim::new(&n, permissive()).unwrap();
            assert!(!ts.strike(&n, &cv, &[buf], 0.0).is_masked(), "side {side}");
        }
    }

    #[test]
    fn strike_on_input_or_output_marker_is_ignored() {
        let (n, _, _) = chain_to_dff();
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[false], &[false]);
        let ts = TransientSim::new(&n, permissive()).unwrap();
        let a = n.inputs()[0];
        assert!(ts.strike(&n, &cv, &[a], 0.0).is_masked());
    }

    #[test]
    fn scratch_reuse_matches_fresh_strikes() {
        // Drive several different strikes through ONE scratch/outcome pair;
        // each must equal the allocating API's result (stale state in the
        // scratch would leak pulses between strikes).
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let g = n.add_gate(CellKind::Not, &[a]);
        let q1 = n.add_dff("q1", g);
        let q2 = n.add_dff("q2", g);
        let q3 = n.add_dff("q3", a);
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[false; 3], &[false]);
        let ts = TransientSim::new(&n, permissive()).unwrap();

        let mut scratch = TransientScratch::default();
        let mut out = StrikeOutcome::default();
        let strikes: &[&[GateId]] = &[&[g, q3], &[q1], &[], &[g], &[g, g], &[q2, q3]];
        for struck in strikes {
            ts.strike_with(&n, &cv, struck, 0.0, &mut scratch, &mut out);
            let fresh = ts.strike(&n, &cv, struck, 0.0);
            assert_eq!(out.latched_dffs, fresh.latched_dffs, "struck {struck:?}");
            assert_eq!(out.upset_dffs, fresh.upset_dffs, "struck {struck:?}");
            assert_eq!(
                out.pulses_propagated, fresh.pulses_propagated,
                "struck {struck:?}"
            );
        }
    }

    #[test]
    fn reconvergent_pulses_cancel_logically() {
        // a -> buf -> (x, y); xor(x_path, y_path) reconverges: flipping both
        // inputs of the XOR leaves the output unchanged -> masked.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let buf = n.add_gate(CellKind::Buf, &[a]);
        let p1 = n.add_gate(CellKind::Buf, &[buf]);
        let p2 = n.add_gate(CellKind::Buf, &[buf]);
        let g = n.add_gate(CellKind::Xor, &[p1, p2]);
        n.add_dff("q", g);
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[false], &[true]);
        let ts = TransientSim::new(&n, permissive()).unwrap();
        let out = ts.strike(&n, &cv, &[buf], 0.0);
        assert!(out.is_masked(), "reconvergent flip must cancel in XOR");
    }
}
