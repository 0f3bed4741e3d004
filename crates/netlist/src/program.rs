//! Levelized structure-of-arrays gate program.
//!
//! A [`GateProgram`] is the netlist's combinational logic compiled once
//! into a straight-line program: contiguous arrays of opcodes, fanin
//! operand indices (CSR) and output slots in topological order, grouped by
//! logic level. Evaluators iterate flat arrays with a tight opcode loop
//! instead of chasing `Gate` objects through the graph — the substrate of
//! the 256-wide compiled transient kernel in `xlmc-gatesim`.
//!
//! The program is a pure function of the netlist's structure. It is built
//! by [`Netlist::program`](crate::Netlist::program) and cached on the
//! netlist exactly like the fanout CSR: any mutation (`push`, `set_fanin`)
//! invalidates the cache, so a stale program can never be served after a
//! rewire.

use crate::cell::CellKind;
use crate::netlist::{GateId, Netlist, NetlistError};
use crate::topo::Topology;

/// Opcode of one straight-line program step.
///
/// Output markers compile to [`Opcode::Buf`]: combinationally they are
/// identity pass-throughs, and the per-op `delay_ps` array carries their
/// (zero) propagation delay so timing stays exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Identity (also output markers).
    Buf,
    /// Inverter.
    Not,
    /// N-ary AND.
    And,
    /// N-ary OR.
    Or,
    /// N-ary NAND.
    Nand,
    /// N-ary NOR.
    Nor,
    /// N-ary XOR (odd parity).
    Xor,
    /// N-ary XNOR (even parity).
    Xnor,
    /// 2:1 mux, operands `[sel, a, b]`.
    Mux,
}

impl Opcode {
    /// Word-wide boolean evaluation (64 independent lanes per `u64`),
    /// matching [`CellKind::eval_words`] for the corresponding cell.
    #[inline]
    pub fn eval_words(self, inputs: &[u64]) -> u64 {
        match self {
            Opcode::Buf => inputs[0],
            Opcode::Not => !inputs[0],
            Opcode::And => inputs.iter().fold(!0u64, |acc, &w| acc & w),
            Opcode::Or => inputs.iter().fold(0u64, |acc, &w| acc | w),
            Opcode::Nand => !inputs.iter().fold(!0u64, |acc, &w| acc & w),
            Opcode::Nor => !inputs.iter().fold(0u64, |acc, &w| acc | w),
            Opcode::Xor => inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            Opcode::Xnor => !inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            Opcode::Mux => (!inputs[0] & inputs[1]) | (inputs[0] & inputs[2]),
        }
    }

    fn from_kind(kind: CellKind) -> Option<Self> {
        Some(match kind {
            CellKind::Buf | CellKind::Output => Opcode::Buf,
            CellKind::Not => Opcode::Not,
            CellKind::And => Opcode::And,
            CellKind::Or => Opcode::Or,
            CellKind::Nand => Opcode::Nand,
            CellKind::Nor => Opcode::Nor,
            CellKind::Xor => Opcode::Xor,
            CellKind::Xnor => Opcode::Xnor,
            CellKind::Mux => Opcode::Mux,
            CellKind::Input | CellKind::Const(_) | CellKind::Dff => return None,
        })
    }
}

/// Coarse per-net role for strike seeding: what a particle hit on the
/// net's driving cell does, resolved once at compile time so the hot
/// seeding loop never touches `Gate` objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NetClass {
    /// Combinational cell: a hit injects a transient pulse.
    Comb,
    /// Register: a hit upsets the stored bit directly.
    Dff,
    /// Source or marker cell (input, constant, output): hits are inert.
    Inert,
}

/// What one strike does to the cells it hits, sorted once by
/// [`NetClass`], so a kernel seeding it reads no per-cell class, register
/// index or level; inert cells are left out.
///
/// A view of the words [`GateProgram::classify_into`] appends: a header
/// `[comb, shallowest]`, then the `comb` combinational nets hit (each
/// launches a pulse), then the registers hit as positions in
/// [`Netlist::dffs`] (each is upset). One slice, so handing a footprint to
/// a kernel reads none of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint<'a> {
    words: &'a [u32],
}

impl<'a> Footprint<'a> {
    /// The footprint encoded in `words`, as
    /// [`GateProgram::classify_into`] appended them. Reads none of them
    /// (debug builds check the header); the accessors panic on words
    /// shorter than their header says.
    #[inline]
    pub fn new(words: &'a [u32]) -> Self {
        debug_assert!(
            words.len() >= 2 && words[0] as usize <= words.len() - 2,
            "a footprint is a header and its seeds"
        );
        Self { words }
    }

    /// The combinational nets hit.
    #[inline]
    pub fn comb_nets(&self) -> &'a [u32] {
        &self.words[2..2 + self.words[0] as usize]
    }

    /// The registers hit, as positions in [`Netlist::dffs`].
    #[inline]
    pub fn dffs(&self) -> &'a [u32] {
        &self.words[2 + self.words[0] as usize..]
    }

    /// The lowest logic level among the combinational nets hit,
    /// `u32::MAX` when there are none.
    #[inline]
    pub fn shallowest(&self) -> u32 {
        self.words[1]
    }
}

/// The compiled straight-line program of one netlist.
///
/// Ops are sorted by `(logic level, gate id)`, which is a topological
/// order: every op reads only nets written by earlier ops, sources or
/// registers. All indices are dense net numbers (`GateId::index`), so an
/// evaluator works on flat per-net state arrays.
#[derive(Debug, Clone, Default)]
pub struct GateProgram {
    opcode: Vec<Opcode>,
    /// Output net of each op (== the gate's own id).
    out: Vec<u32>,
    /// CSR offsets into `fanin`, one per op plus a terminator.
    fanin_start: Vec<u32>,
    /// Flat fanin net indices, in pin order per op.
    fanin: Vec<u32>,
    /// Propagation delay of each op's cell, ps.
    delay_ps: Vec<f64>,
    /// CSR offsets into the op array, one per logic level plus terminator.
    level_start: Vec<u32>,
    /// CSR offsets into `consumer_ops`, one per net plus a terminator.
    consumer_start: Vec<u32>,
    /// For each net, the ops that read it, ascending op index.
    consumer_ops: Vec<u32>,
    /// `(dff gate, d-pin net)` pairs in [`Netlist::dffs`] order.
    dff_d: Vec<(GateId, u32)>,
    /// Per net: its position in [`Netlist::dffs`], `u32::MAX` for nets
    /// that are not DFFs.
    dff_pos: Vec<u32>,
    /// Per-net seeding role.
    net_class: Vec<NetClass>,
    /// Per net: logic level (0 for sources and registers).
    level: Vec<u32>,
    nets: u32,
}

impl GateProgram {
    /// Compile `netlist` into a levelized program.
    ///
    /// # Errors
    ///
    /// Fails with [`NetlistError::CombinationalLoop`] when the netlist
    /// cannot be levelized.
    pub fn build(netlist: &Netlist) -> Result<Self, NetlistError> {
        let topo = Topology::new(netlist)?;
        let mut ops: Vec<GateId> = topo.order().to_vec();
        // Kahn's order is topological but not level-grouped; sorting by
        // (level, id) keeps it topological *and* yields contiguous level
        // runs for the per-level stats.
        ops.sort_unstable_by_key(|&g| (topo.level(g), g));

        let nets = netlist.len() as u32;
        let mut p = GateProgram {
            nets,
            ..GateProgram::default()
        };
        p.opcode.reserve(ops.len());
        p.out.reserve(ops.len());
        p.fanin_start.reserve(ops.len() + 1);
        p.fanin_start.push(0);
        let mut consumer_count = vec![0u32; nets as usize + 1];
        let mut cur_level = 0u32;
        p.level_start.push(0);
        for &g in &ops {
            let gate = netlist.gate(g);
            let op = Opcode::from_kind(gate.kind)
                .expect("topological order contains only combinational gates");
            while cur_level < topo.level(g) {
                p.level_start.push(p.opcode.len() as u32);
                cur_level += 1;
            }
            p.opcode.push(op);
            p.out.push(g.0);
            p.delay_ps.push(gate.kind.delay_ps());
            for &f in &gate.fanin {
                p.fanin.push(f.0);
                consumer_count[f.index()] += 1;
            }
            p.fanin_start.push(p.fanin.len() as u32);
        }
        p.level_start.push(p.opcode.len() as u32);

        // Per-net consumer-op CSR (ascending op index because ops are
        // appended in order): the compiled kernel's replacement for the
        // fanout worklist.
        p.consumer_start = vec![0u32; nets as usize + 1];
        for (i, &count) in consumer_count.iter().take(nets as usize).enumerate() {
            p.consumer_start[i + 1] = p.consumer_start[i] + count;
        }
        p.consumer_ops = vec![0u32; p.fanin.len()];
        let mut cursor: Vec<u32> = p.consumer_start[..nets as usize].to_vec();
        for (op_idx, w) in p.fanin_start.windows(2).enumerate() {
            for &f in &p.fanin[w[0] as usize..w[1] as usize] {
                let c = &mut cursor[f as usize];
                p.consumer_ops[*c as usize] = op_idx as u32;
                *c += 1;
            }
        }

        p.dff_d = netlist
            .dffs()
            .iter()
            .map(|&dff| (dff, netlist.gate(dff).fanin[0].0))
            .collect();
        p.dff_pos = vec![u32::MAX; nets as usize];
        for (i, &(dff, _)) in p.dff_d.iter().enumerate() {
            p.dff_pos[dff.index()] = i as u32;
        }
        p.net_class = netlist
            .iter()
            .map(|(_, gate)| match gate.kind {
                CellKind::Dff => NetClass::Dff,
                CellKind::Input | CellKind::Const(_) | CellKind::Output => NetClass::Inert,
                _ => NetClass::Comb,
            })
            .collect();
        p.level = netlist.iter().map(|(id, _)| topo.level(id)).collect();
        Ok(p)
    }

    /// Number of ops (combinational gates, including output markers).
    pub fn len(&self) -> usize {
        self.opcode.len()
    }

    /// Whether the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.opcode.is_empty()
    }

    /// Total nets (gates) of the source netlist.
    pub fn nets(&self) -> usize {
        self.nets as usize
    }

    /// Number of logic levels (0 for a program with no ops).
    pub fn levels(&self) -> usize {
        self.level_start.len().saturating_sub(2)
    }

    /// The ops of logic level `l` as a range of op indices.
    pub fn level_ops(&self, l: usize) -> std::ops::Range<usize> {
        self.level_start[l + 1] as usize..self.level_start[l + 2] as usize
    }

    /// Opcode of op `i`.
    #[inline]
    pub fn opcode(&self, i: usize) -> Opcode {
        self.opcode[i]
    }

    /// Output net index of op `i`.
    #[inline]
    pub fn out(&self, i: usize) -> usize {
        self.out[i] as usize
    }

    /// Fanin net indices of op `i`, in pin order.
    #[inline]
    pub fn fanins(&self, i: usize) -> &[u32] {
        &self.fanin[self.fanin_start[i] as usize..self.fanin_start[i + 1] as usize]
    }

    /// Cell propagation delay of op `i`, ps.
    #[inline]
    pub fn delay_ps(&self, i: usize) -> f64 {
        self.delay_ps[i]
    }

    /// The ops consuming net `f`, ascending op index.
    #[inline]
    pub fn consumers(&self, f: usize) -> &[u32] {
        &self.consumer_ops[self.consumer_start[f] as usize..self.consumer_start[f + 1] as usize]
    }

    /// `(dff gate, d-pin net index)` pairs in [`Netlist::dffs`] order.
    pub fn dff_d(&self) -> &[(GateId, u32)] {
        &self.dff_d
    }

    /// The position of net `f` in [`Netlist::dffs`] (and in
    /// [`GateProgram::dff_d`]), `None` when `f` is not a DFF.
    #[inline]
    pub fn dff_index(&self, f: usize) -> Option<usize> {
        let i = self.dff_pos[f];
        (i != u32::MAX).then_some(i as usize)
    }

    /// Seeding role of net `f`.
    #[inline]
    pub fn net_class(&self, f: usize) -> NetClass {
        self.net_class[f]
    }

    /// Append the [`Footprint`] words of `cells` to `out`: the header,
    /// then the combinational nets, then the registers' [`Netlist::dffs`]
    /// positions, each in cell order. Returns how many words it appended.
    pub fn classify_into(&self, cells: &[GateId], out: &mut Vec<u32>) -> usize {
        let start = out.len();
        out.extend([0, u32::MAX]);
        for &g in cells {
            if self.net_class[g.index()] == NetClass::Comb {
                out.push(g.0);
                out[start + 1] = out[start + 1].min(self.level[g.index()]);
            }
        }
        out[start] = (out.len() - start - 2) as u32;
        out.extend(
            cells
                .iter()
                .filter(|g| self.net_class[g.index()] == NetClass::Dff)
                .map(|g| self.dff_pos[g.index()]),
        );
        out.len() - start
    }

    /// Logic level of net `f`: the longest combinational path to it from
    /// a source or register, so a consumer's level always exceeds each of
    /// its fanins' (0 for sources and registers; op `i` lies in
    /// [`GateProgram::level_ops`]`(level - 1)`).
    #[inline]
    pub fn level(&self, f: usize) -> u32 {
        self.level[f]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(CellKind::And, &[a, b]);
        let g2 = n.add_gate(CellKind::Not, &[g1]);
        let g3 = n.add_gate(CellKind::Or, &[g2, a]);
        n.add_dff("q", g3);
        n.add_output("y", g3);
        n
    }

    #[test]
    fn program_is_topological_and_levelized() {
        let n = diamond();
        let p = GateProgram::build(&n).unwrap();
        assert_eq!(p.len(), 4); // and, not, or, output marker
        assert_eq!(p.nets(), n.len());
        // Every fanin of op i is written by an earlier op or is a boundary
        // net (source/dff).
        let mut written = vec![false; p.nets()];
        for (id, gate) in n.iter() {
            if gate.kind.is_source() || gate.kind.is_sequential() {
                written[id.index()] = true;
            }
        }
        for i in 0..p.len() {
            for &f in p.fanins(i) {
                assert!(written[f as usize], "op {i} reads unwritten net {f}");
            }
            written[p.out(i)] = true;
        }
        // Levels partition the ops and are non-decreasing.
        let total: usize = (0..p.levels()).map(|l| p.level_ops(l).len()).sum();
        assert_eq!(total, p.len());
        // Per-net levels rise along every fanin edge and name the op's run.
        for i in 0..p.len() {
            let level = p.level(p.out(i));
            assert!(p.level_ops(level as usize - 1).contains(&i), "op {i}");
            for &f in p.fanins(i) {
                assert!(p.level(f as usize) < level, "op {i} fanin {f}");
            }
        }
    }

    #[test]
    fn consumers_mirror_fanins() {
        let n = diamond();
        let p = GateProgram::build(&n).unwrap();
        for i in 0..p.len() {
            for &f in p.fanins(i) {
                assert!(
                    p.consumers(f as usize).contains(&(i as u32)),
                    "op {i} missing from consumers of net {f}"
                );
            }
        }
        // Ascending op order per net.
        for f in 0..p.nets() {
            assert!(p.consumers(f).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn output_markers_compile_to_buf_with_zero_delay() {
        let n = diamond();
        let p = GateProgram::build(&n).unwrap();
        let marker = (0..p.len())
            .find(|&i| n.gate(GateId(p.out[i])).kind == CellKind::Output)
            .unwrap();
        assert_eq!(p.opcode(marker), Opcode::Buf);
        assert_eq!(p.delay_ps(marker), 0.0);
    }

    #[test]
    fn dff_d_pairs_follow_dff_order() {
        let n = diamond();
        let p = GateProgram::build(&n).unwrap();
        assert_eq!(p.dff_d().len(), 1);
        let (dff, d) = p.dff_d()[0];
        assert_eq!(p.dff_index(dff.index()), Some(0));
        assert_eq!(p.dff_index(d as usize), None);
        assert_eq!(n.dffs()[0], dff);
        assert_eq!(n.gate(dff).fanin[0].0, d);
    }

    #[test]
    fn loop_is_an_error() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let g1 = GateId(1);
        let g2 = GateId(2);
        assert_eq!(n.add_gate(CellKind::And, &[a, g2]), g1);
        assert_eq!(n.add_gate(CellKind::Or, &[a, g1]), g2);
        assert!(matches!(
            GateProgram::build(&n),
            Err(NetlistError::CombinationalLoop { .. })
        ));
    }
}
