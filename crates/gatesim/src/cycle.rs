//! Levelized two-valued cycle simulation.

use xlmc_netlist::{CellKind, GateId, Netlist, NetlistError, Topology};

/// All node values of one simulated cycle, plus the register state entering
/// the next cycle.
///
/// Default-constructs empty so callers can keep one around as a reusable
/// evaluation target for [`CycleSim::eval_into`].
#[derive(Debug, Clone, Default)]
pub struct CycleValues {
    values: Vec<bool>,
    next_state: Vec<bool>,
}

impl CycleValues {
    /// The stable value of any net during the cycle.
    pub fn value(&self, id: GateId) -> bool {
        self.values[id.index()]
    }

    /// All net values, indexed by gate id.
    pub fn values(&self) -> &[bool] {
        &self.values
    }

    /// The register state latched at the end of the cycle, in
    /// [`Netlist::dffs`] order.
    pub fn next_state(&self) -> &[bool] {
        &self.next_state
    }

    /// Refill from one cycle of packed values: net `f`'s value is bit
    /// `bit` of `words[f]` (a [`crate::bitparallel::CycleWindow`] block).
    pub fn unpack_into(&mut self, netlist: &Netlist, words: &[u64], bit: u32) {
        assert_eq!(words.len(), netlist.len(), "one word per net");
        self.values.clear();
        self.values.extend(words.iter().map(|&w| w >> bit & 1 == 1));
        self.next_state.clear();
        self.next_state.extend(
            netlist
                .dffs()
                .iter()
                .map(|&d| self.values[netlist.gate(d).fanin[0].index()]),
        );
    }
}

/// A reusable levelized simulator for one netlist.
///
/// Holds the topological order; each [`CycleSim::eval`] call performs one
/// full combinational sweep. The register state vector follows the order of
/// [`Netlist::dffs`], the input vector the order of [`Netlist::inputs`].
#[derive(Debug, Clone)]
pub struct CycleSim {
    topo: Topology,
}

impl CycleSim {
    /// Prepare a simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// Fails when the netlist has a combinational loop.
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        Ok(Self {
            topo: Topology::new(netlist)?,
        })
    }

    /// The underlying topological order.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Evaluate one cycle.
    ///
    /// `state[i]` is the current value of `netlist.dffs()[i]`; `inputs[i]`
    /// the value of `netlist.inputs()[i]` during this cycle.
    ///
    /// # Panics
    ///
    /// Panics when the state or input vector length does not match the
    /// netlist.
    pub fn eval(&self, netlist: &Netlist, state: &[bool], inputs: &[bool]) -> CycleValues {
        let mut out = CycleValues::default();
        self.eval_into(netlist, state, inputs, &mut out);
        out
    }

    /// [`CycleSim::eval`] into a caller-owned buffer.
    ///
    /// Reuses `out`'s allocations across calls — the campaign hot path
    /// evaluates thousands of cycles per worker without touching the
    /// allocator after the first call.
    pub fn eval_into(
        &self,
        netlist: &Netlist,
        state: &[bool],
        inputs: &[bool],
        out: &mut CycleValues,
    ) {
        assert_eq!(state.len(), netlist.dffs().len(), "state width mismatch");
        assert_eq!(inputs.len(), netlist.inputs().len(), "input width mismatch");
        out.values.clear();
        out.values.resize(netlist.len(), false);
        let values = &mut out.values;
        for (i, &d) in netlist.dffs().iter().enumerate() {
            values[d.index()] = state[i];
        }
        for (i, &pi) in netlist.inputs().iter().enumerate() {
            values[pi.index()] = inputs[i];
        }
        for (id, gate) in netlist.iter() {
            if let CellKind::Const(v) = gate.kind {
                values[id.index()] = v;
            }
        }
        for &id in self.topo.order() {
            let gate = netlist.gate(id);
            let v = match gate.fanin.len() {
                1 => gate.kind.eval(&[values[gate.fanin[0].index()]]),
                2 => gate
                    .kind
                    .eval(&[values[gate.fanin[0].index()], values[gate.fanin[1].index()]]),
                3 => gate.kind.eval(&[
                    values[gate.fanin[0].index()],
                    values[gate.fanin[1].index()],
                    values[gate.fanin[2].index()],
                ]),
                _ => {
                    let ins: Vec<bool> = gate.fanin.iter().map(|f| values[f.index()]).collect();
                    gate.kind.eval(&ins)
                }
            };
            values[id.index()] = v;
        }
        out.next_state.clear();
        out.next_state.extend(
            netlist
                .dffs()
                .iter()
                .map(|&d| out.values[netlist.gate(d).fanin[0].index()]),
        );
    }

    /// Run `cycles` cycles from `init`, feeding per-cycle inputs from
    /// `input_fn(cycle)`, and return the per-cycle values.
    pub fn run(
        &self,
        netlist: &Netlist,
        init: &[bool],
        cycles: usize,
        mut input_fn: impl FnMut(usize) -> Vec<bool>,
    ) -> Vec<CycleValues> {
        let mut state = init.to_vec();
        let mut out = Vec::with_capacity(cycles);
        for c in 0..cycles {
            let cv = self.eval(netlist, &state, &input_fn(c));
            state = cv.next_state.clone();
            out.push(cv);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        // Build a correct 2-bit counter using forward reference ids.
        let mut n = Netlist::new();
        let en = n.add_input("en");
        let q0_id = GateId(2);
        let d0 = n.add_gate(CellKind::Xor, &[en, q0_id]);
        let q0 = n.add_dff("b0", d0);
        assert_eq!(q0, q0_id);
        let carry = n.add_gate(CellKind::And, &[en, q0]);
        let q1_id = GateId(5);
        let d1 = n.add_gate(CellKind::Xor, &[carry, q1_id]);
        let q1 = n.add_dff("b1", d1);
        assert_eq!(q1, q1_id);
        n.validate().unwrap();

        let sim = CycleSim::new(&n).unwrap();
        let mut state = vec![false, false];
        let mut seen = Vec::new();
        for _ in 0..5 {
            let cv = sim.eval(&n, &state, &[true]);
            seen.push((state[0] as u8) | ((state[1] as u8) << 1));
            state = cv.next_state().to_vec();
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn enable_low_holds_state() {
        let mut n = Netlist::new();
        let en = n.add_input("en");
        let q_id = GateId(2);
        let d = n.add_gate(CellKind::Xor, &[en, q_id]);
        let q = n.add_dff("b", d);
        assert_eq!(q, q_id);
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[true], &[false]);
        assert_eq!(cv.next_state(), &[true]);
        let cv = sim.eval(&n, &[true], &[true]);
        assert_eq!(cv.next_state(), &[false]);
    }

    #[test]
    fn values_expose_internal_nets() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let inv = n.add_gate(CellKind::Not, &[a]);
        n.add_output("y", inv);
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[], &[false]);
        assert!(cv.value(inv));
        assert!(!cv.value(a));
        assert_eq!(cv.values().len(), n.len());
    }

    #[test]
    fn consts_drive_their_value() {
        let mut n = Netlist::new();
        let c1 = n.add_const(true);
        let c0 = n.add_const(false);
        let g = n.add_gate(CellKind::Or, &[c0, c1]);
        n.add_output("y", g);
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[], &[]);
        assert!(cv.value(g));
    }

    #[test]
    fn run_threads_state_across_cycles() {
        // Toggle flop (no inputs): q alternates each cycle.
        let mut n = Netlist::new();
        let q_id = GateId(1);
        let inv = n.add_gate(CellKind::Not, &[q_id]);
        let q = n.add_dff("q", inv);
        assert_eq!(q, q_id);
        let sim = CycleSim::new(&n).unwrap();
        let trace = sim.run(&n, &[false], 4, |_| vec![]);
        let qs: Vec<bool> = trace.iter().map(|cv| cv.value(q)).collect();
        assert_eq!(qs, vec![false, true, false, true]);
    }

    #[test]
    #[should_panic(expected = "state width mismatch")]
    fn wrong_state_width_panics() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        n.add_dff("q", a);
        let sim = CycleSim::new(&n).unwrap();
        let _ = sim.eval(&n, &[true, false], &[true]); // one dff, two state bits
    }
}
