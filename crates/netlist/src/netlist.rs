//! The gate graph: gates, nets, names and validation.

use crate::cell::CellKind;
use crate::program::GateProgram;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Index of a gate inside a [`Netlist`].
///
/// The output net of a gate is identified with the gate itself (every gate
/// drives exactly one net), so a `GateId` doubles as a signal identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub u32);

impl GateId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One gate instance: a cell kind plus its fanin nets and optional name.
#[derive(Debug, Clone)]
pub struct Gate {
    /// The cell kind.
    pub kind: CellKind,
    /// Fanin gate ids, in pin order.
    pub fanin: Vec<GateId>,
    /// Optional instance name (always set for inputs, outputs and DFFs).
    pub name: Option<String>,
}

/// Errors reported by netlist construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate references a fanin id that does not exist.
    DanglingFanin { gate: GateId, fanin: GateId },
    /// A gate has the wrong number of fanins for its kind.
    BadArity {
        gate: GateId,
        kind: CellKind,
        got: usize,
    },
    /// The combinational part of the netlist contains a cycle through `gate`.
    CombinationalLoop { gate: GateId },
    /// A named signal was looked up but does not exist.
    UnknownName(String),
    /// Two gates were given the same name.
    DuplicateName(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DanglingFanin { gate, fanin } => {
                write!(f, "gate {gate} references nonexistent fanin {fanin}")
            }
            NetlistError::BadArity { gate, kind, got } => {
                write!(
                    f,
                    "gate {gate} of kind {kind} has invalid fanin count {got}"
                )
            }
            NetlistError::CombinationalLoop { gate } => {
                write!(f, "combinational loop through gate {gate}")
            }
            NetlistError::UnknownName(n) => write!(f, "unknown signal name `{n}`"),
            NetlistError::DuplicateName(n) => write!(f, "duplicate signal name `{n}`"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// Aggregate statistics of a netlist (gate counts and total cell area).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetlistStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of D flip-flops.
    pub dffs: usize,
    /// Number of combinational gates (excluding `Output` markers).
    pub combinational: usize,
    /// Total cell area (arbitrary units, see [`CellKind::area`]).
    pub area: f64,
}

/// A flat gate-level netlist.
///
/// Gates are stored in insertion order; [`GateId`]s are dense indices. The
/// netlist is mutable during construction; analyses ([`crate::Topology`],
/// cones, placement) are built as separate immutable views so a validated
/// netlist is never silently invalidated.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    gates: Vec<Gate>,
    names: HashMap<String, GateId>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    dffs: Vec<GateId>,
    /// Lazily built fanout adjacency; invalidated by any mutation.
    fanout_cache: OnceLock<FanoutAdjacency>,
    /// Lazily compiled straight-line program; invalidated by any mutation.
    program_cache: OnceLock<Result<GateProgram, NetlistError>>,
}

/// Compressed-sparse-row fanout adjacency of a [`Netlist`].
///
/// `of(g)` is the slice of gates consuming `g`'s output, in ascending
/// consumer-id order (the order the old `Vec<Vec<GateId>>` representation
/// produced). Two flat arrays instead of one allocation per gate, built once
/// per netlist by [`Netlist::fanouts`] and cached until the next mutation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FanoutAdjacency {
    offsets: Vec<u32>,
    targets: Vec<GateId>,
}

impl FanoutAdjacency {
    fn build(netlist: &Netlist) -> Self {
        let n = netlist.len();
        let mut offsets = vec![0u32; n + 1];
        for (_, gate) in netlist.iter() {
            for &f in &gate.fanin {
                offsets[f.index() + 1] += 1;
            }
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut targets = vec![GateId(0); offsets[n] as usize];
        let mut cursor = offsets.clone();
        for (id, gate) in netlist.iter() {
            for &f in &gate.fanin {
                let slot = &mut cursor[f.index()];
                targets[*slot as usize] = id;
                *slot += 1;
            }
        }
        Self { offsets, targets }
    }

    /// The consumers of gate `id`, in ascending id order.
    pub fn of(&self, id: GateId) -> &[GateId] {
        let lo = self.offsets[id.index()] as usize;
        let hi = self.offsets[id.index() + 1] as usize;
        &self.targets[lo..hi]
    }
}

impl Netlist {
    /// Create an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of gates (of every kind) in the netlist.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the netlist contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Iterate over `(GateId, &Gate)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// All primary input gate ids, in declaration order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// All primary output marker gate ids, in declaration order.
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// All DFF gate ids, in declaration order — which is ascending id
    /// order, since ids are handed out in declaration order.
    pub fn dffs(&self) -> &[GateId] {
        &self.dffs
    }

    /// Look up a named signal.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.names.get(name).copied()
    }

    /// Look up a named signal, reporting an error when absent.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownName`] when no gate carries `name`.
    pub fn resolve(&self, name: &str) -> Result<GateId, NetlistError> {
        self.find(name)
            .ok_or_else(|| NetlistError::UnknownName(name.to_owned()))
    }

    /// The name of a gate, when it has one.
    pub fn name_of(&self, id: GateId) -> Option<&str> {
        self.gate(id).name.as_deref()
    }

    fn push(&mut self, gate: Gate) -> GateId {
        self.fanout_cache.take();
        self.program_cache.take();
        let id = GateId(self.gates.len() as u32);
        if let Some(name) = &gate.name {
            // Last writer wins is surprising; keep first and panic in debug.
            debug_assert!(
                !self.names.contains_key(name),
                "duplicate signal name `{name}`"
            );
            self.names.insert(name.clone(), id);
        }
        match gate.kind {
            CellKind::Input => self.inputs.push(id),
            CellKind::Output => self.outputs.push(id),
            CellKind::Dff => self.dffs.push(id),
            _ => {}
        }
        self.gates.push(gate);
        id
    }

    /// Add a named primary input.
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        self.push(Gate {
            kind: CellKind::Input,
            fanin: Vec::new(),
            name: Some(name.into()),
        })
    }

    /// Add a constant driver.
    pub fn add_const(&mut self, value: bool) -> GateId {
        self.push(Gate {
            kind: CellKind::Const(value),
            fanin: Vec::new(),
            name: None,
        })
    }

    /// Add an anonymous combinational gate.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `kind` is not combinational; arity is
    /// checked by [`Netlist::validate`].
    pub fn add_gate(&mut self, kind: CellKind, fanin: &[GateId]) -> GateId {
        debug_assert!(kind.is_combinational(), "add_gate with kind {kind}");
        self.push(Gate {
            kind,
            fanin: fanin.to_vec(),
            name: None,
        })
    }

    /// Add a named combinational gate.
    pub fn add_named_gate(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        fanin: &[GateId],
    ) -> GateId {
        debug_assert!(kind.is_combinational(), "add_named_gate with kind {kind}");
        self.push(Gate {
            kind,
            fanin: fanin.to_vec(),
            name: Some(name.into()),
        })
    }

    /// Add a named D flip-flop whose D pin is `d`.
    pub fn add_dff(&mut self, name: impl Into<String>, d: GateId) -> GateId {
        self.push(Gate {
            kind: CellKind::Dff,
            fanin: vec![d],
            name: Some(name.into()),
        })
    }

    /// Add a named primary output marker driven by `from`.
    pub fn add_output(&mut self, name: impl Into<String>, from: GateId) -> GateId {
        self.push(Gate {
            kind: CellKind::Output,
            fanin: vec![from],
            name: Some(name.into()),
        })
    }

    /// Replace the fanin pins of an existing gate.
    ///
    /// Used by construction patterns that need forward references (e.g. a
    /// register with a write-enable mux fed from its own output). The new
    /// connectivity is checked by the next [`Netlist::validate`] call.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn set_fanin(&mut self, id: GateId, fanin: Vec<GateId>) {
        self.fanout_cache.take();
        self.program_cache.take();
        self.gates[id.index()].fanin = fanin;
    }

    /// Fanout adjacency: for each gate, the gates that consume it.
    ///
    /// Built on first use and cached on the netlist (every mutation
    /// invalidates the cache), so repeated traversals — placement, cones,
    /// per-cell pre-characterization — stop paying an O(gates) rebuild.
    pub fn fanouts(&self) -> &FanoutAdjacency {
        self.fanout_cache
            .get_or_init(|| FanoutAdjacency::build(self))
    }

    /// The compiled straight-line program of the combinational logic.
    ///
    /// Built on first use and cached on the netlist with the same
    /// invalidation discipline as [`Netlist::fanouts`]: every mutation
    /// (`push`, [`Netlist::set_fanin`]) drops the cache, so the program a
    /// kernel receives always reflects the current adjacency.
    ///
    /// # Errors
    ///
    /// Fails when the combinational graph is cyclic.
    pub fn program(&self) -> Result<&GateProgram, NetlistError> {
        self.program_cache
            .get_or_init(|| GateProgram::build(self))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Validate structural invariants: fanin ids in range, arities correct,
    /// names unique, and the combinational graph acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        let n = self.gates.len() as u32;
        let mut seen = HashMap::new();
        for (id, gate) in self.iter() {
            for &f in &gate.fanin {
                if f.0 >= n {
                    return Err(NetlistError::DanglingFanin { gate: id, fanin: f });
                }
            }
            match gate.kind.fixed_arity() {
                Some(k) if gate.fanin.len() != k => {
                    return Err(NetlistError::BadArity {
                        gate: id,
                        kind: gate.kind,
                        got: gate.fanin.len(),
                    })
                }
                None if gate.fanin.len() < 2 => {
                    return Err(NetlistError::BadArity {
                        gate: id,
                        kind: gate.kind,
                        got: gate.fanin.len(),
                    })
                }
                _ => {}
            }
            if let Some(name) = &gate.name {
                if let Some(prev) = seen.insert(name.clone(), id) {
                    let _ = prev;
                    return Err(NetlistError::DuplicateName(name.clone()));
                }
            }
        }
        // Acyclicity is established by Topology construction.
        crate::topo::Topology::new(self).map(|_| ())
    }

    /// Aggregate statistics (gate counts and total cell area).
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats::default();
        for (_, gate) in self.iter() {
            match gate.kind {
                CellKind::Input => s.inputs += 1,
                CellKind::Output => s.outputs += 1,
                CellKind::Dff => s.dffs += 1,
                CellKind::Const(_) => {}
                _ => s.combinational += 1,
            }
            s.area += gate.kind.area();
        }
        s
    }

    /// Ids of all combinational logic gates (excluding sources, DFFs and
    /// output markers).
    pub fn combinational_gates(&self) -> Vec<GateId> {
        self.iter()
            .filter(|(_, g)| g.kind.is_combinational() && g.kind != CellKind::Output)
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(CellKind::And, &[a, b]);
        let q = n.add_dff("q", g);
        n.add_output("y", q);
        n
    }

    #[test]
    fn construction_and_lookup() {
        let n = tiny();
        assert_eq!(n.len(), 5);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.dffs().len(), 1);
        let q = n.find("q").unwrap();
        assert_eq!(n.gate(q).kind, CellKind::Dff);
        assert_eq!(n.name_of(q), Some("q"));
        assert!(n.find("nope").is_none());
        assert!(matches!(
            n.resolve("nope"),
            Err(NetlistError::UnknownName(_))
        ));
    }

    #[test]
    fn dffs_ascend_with_gate_id() {
        let mut n = tiny();
        let g = n.find("q").unwrap();
        let a = n.add_input("late");
        let q2 = n.add_dff("q2", g);
        n.add_dff("q3", a);
        assert_eq!(n.dffs()[1], q2);
        assert!(n.dffs().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert_eq!(tiny().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_dangling_fanin() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        n.add_gate(CellKind::And, &[a, GateId(99)]);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::DanglingFanin { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        // AND with a single fanin is malformed.
        n.push(Gate {
            kind: CellKind::And,
            fanin: vec![a],
            name: None,
        });
        assert!(matches!(n.validate(), Err(NetlistError::BadArity { .. })));
    }

    #[test]
    fn validate_rejects_combinational_loop() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        // g1 and g2 feed each other.
        let g1 = n.push(Gate {
            kind: CellKind::And,
            fanin: vec![a, GateId(2)],
            name: None,
        });
        n.push(Gate {
            kind: CellKind::Or,
            fanin: vec![a, g1],
            name: None,
        });
        assert!(matches!(
            n.validate(),
            Err(NetlistError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn dff_breaks_cycles() {
        // A register feeding its own D pin through an inverter is legal.
        let mut n = Netlist::new();
        let q_placeholder = GateId(1); // the dff will be gate 1
        let inv = n.push(Gate {
            kind: CellKind::Not,
            fanin: vec![q_placeholder],
            name: None,
        });
        let q = n.add_dff("toggle", inv);
        assert_eq!(q, q_placeholder);
        assert_eq!(n.validate(), Ok(()));
    }

    #[test]
    fn fanouts_are_inverse_of_fanins() {
        let n = tiny();
        let fo = n.fanouts();
        let a = n.find("a").unwrap();
        let and_consumers = fo.of(a);
        assert_eq!(and_consumers.len(), 1);
        assert_eq!(n.gate(and_consumers[0]).kind, CellKind::And);
        // Every fanin edge appears exactly once in the adjacency, ascending.
        for (id, gate) in n.iter() {
            for &f in &gate.fanin {
                assert!(fo.of(f).contains(&id));
            }
            assert!(fo.of(id).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn fanout_cache_is_invalidated_by_mutation() {
        let mut n = tiny();
        let a = n.find("a").unwrap();
        let b = n.find("b").unwrap();
        assert_eq!(n.fanouts().of(a).len(), 1);
        // Rewiring the AND gate off `a` must rebuild the adjacency.
        let and = n.fanouts().of(a)[0];
        n.set_fanin(and, vec![b, b]);
        assert!(n.fanouts().of(a).is_empty());
        assert_eq!(n.fanouts().of(b).len(), 2);
        // Adding a gate invalidates too.
        let g = n.add_gate(CellKind::Not, &[a]);
        assert_eq!(n.fanouts().of(a), [g]);
    }

    #[test]
    fn program_cache_is_invalidated_by_mutation() {
        // Regression: a cached levelization must never serve stale
        // adjacency to the program builder after a rewire.
        let mut n = tiny();
        let a = n.find("a").unwrap();
        let b = n.find("b").unwrap();
        let and = n.fanouts().of(a)[0];
        let before = n.program().unwrap().clone();
        let and_op = (0..before.len())
            .find(|&i| before.out(i) == and.index())
            .unwrap();
        assert_eq!(before.fanins(and_op), &[a.0, b.0]);
        // Rewiring the AND gate off `a` must rebuild the program.
        n.set_fanin(and, vec![b, b]);
        let after = n.program().unwrap().clone();
        let and_op = (0..after.len())
            .find(|&i| after.out(i) == and.index())
            .unwrap();
        assert_eq!(after.fanins(and_op), &[b.0, b.0]);
        assert!(after.consumers(a.index()).is_empty());
        assert_eq!(after.consumers(b.index()).len(), 2);
        // Adding a gate invalidates too (op count grows).
        let g = n.add_gate(CellKind::Not, &[a]);
        let grown = n.program().unwrap();
        assert_eq!(grown.len(), after.len() + 1);
        assert_eq!(
            grown.consumers(a.index()),
            &[(0..grown.len())
                .find(|&i| grown.out(i) == g.index())
                .unwrap() as u32]
        );
    }

    #[test]
    fn stats_count_and_area() {
        let n = tiny();
        let s = n.stats();
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.dffs, 1);
        assert_eq!(s.combinational, 1);
        assert!(s.area > 0.0);
    }

    #[test]
    fn combinational_gates_excludes_markers() {
        let n = tiny();
        let cg = n.combinational_gates();
        assert_eq!(cg.len(), 1);
        assert_eq!(n.gate(cg[0]).kind, CellKind::And);
    }

    #[test]
    fn error_display_is_informative() {
        let e = NetlistError::UnknownName("foo".into());
        assert!(e.to_string().contains("foo"));
        let e = NetlistError::CombinationalLoop { gate: GateId(3) };
        assert!(e.to_string().contains("g3"));
    }
}
