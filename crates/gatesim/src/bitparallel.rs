//! Bit-parallel (64 cycles per word) evaluation of combinational traces.
//!
//! During pre-characterization the paper records the per-cycle logic value
//! of every register from RTL simulation, then derives the value of every
//! *combinational* node by gate-level logic simulation, "using fast
//! bit-parallel calculation". That is exactly this module: given the packed
//! per-cycle traces of the registers and primary inputs, one topological
//! sweep with word-wide boolean operations produces the packed traces of
//! every other node — 64 cycles per instruction.

use std::ops::Range;
use std::sync::OnceLock;

use xlmc_netlist::{CellKind, GateId, Netlist, NetlistError};

use crate::compiled::{CycleGroup, WideMask};

/// Packed per-cycle value traces for every gate of a netlist.
///
/// Bit `c % 64` of word `c / 64` of a gate's trace is its logic value in
/// cycle `c`.
#[derive(Debug, Clone)]
pub struct PackedTraces {
    words_per_gate: usize,
    cycles: usize,
    data: Vec<u64>,
}

impl PackedTraces {
    /// Allocate all-zero traces for `netlist` over `cycles` cycles.
    pub fn zeroed(netlist: &Netlist, cycles: usize) -> Self {
        let words_per_gate = cycles.div_ceil(64).max(1);
        Self {
            words_per_gate,
            cycles,
            data: vec![0; words_per_gate * netlist.len()],
        }
    }

    /// Number of recorded cycles.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// The packed trace of one gate.
    pub fn trace(&self, id: GateId) -> &[u64] {
        let base = id.index() * self.words_per_gate;
        &self.data[base..base + self.words_per_gate]
    }

    fn trace_mut(&mut self, id: GateId) -> &mut [u64] {
        let base = id.index() * self.words_per_gate;
        &mut self.data[base..base + self.words_per_gate]
    }

    /// The value of `id` in cycle `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c >= self.cycles()`.
    pub fn value(&self, id: GateId, c: usize) -> bool {
        assert!(c < self.cycles, "cycle {c} out of range");
        self.trace(id)[c / 64] >> (c % 64) & 1 == 1
    }

    /// Set the value of `id` in cycle `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c >= self.cycles()`.
    pub fn set_value(&mut self, id: GateId, c: usize, v: bool) {
        assert!(c < self.cycles, "cycle {c} out of range");
        let w = &mut self.trace_mut(id)[c / 64];
        if v {
            *w |= 1 << (c % 64);
        } else {
            *w &= !(1 << (c % 64));
        }
    }

    /// Overwrite word `w` of one gate's trace: its values in cycles
    /// `64 * w ..` as bits `0 ..`. Bits past [`PackedTraces::cycles`] are
    /// dropped, so they stay zero.
    ///
    /// # Panics
    ///
    /// Panics when `w` is past the last word.
    pub fn set_word(&mut self, id: GateId, w: usize, word: u64) {
        let valid = self.cycles.saturating_sub(64 * w);
        let mask = if valid >= 64 { !0 } else { (1 << valid) - 1 };
        self.trace_mut(id)[w] = word & mask;
    }

    /// Overwrite the full trace of one gate from a bool-per-cycle slice.
    ///
    /// # Panics
    ///
    /// Panics when `values.len() != self.cycles()`.
    pub fn set_trace(&mut self, id: GateId, values: &[bool]) {
        assert_eq!(values.len(), self.cycles, "trace length mismatch");
        for (c, &v) in values.iter().enumerate() {
            self.set_value(id, c, v);
        }
    }
}

/// Transpose a 64 x 64 bit matrix in place: bit `j` of `m[i]` becomes bit
/// `i` of `m[j]`. Turns 64 per-cycle state words into one 64-cycle trace
/// word per bit with a few hundred word operations.
pub fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_ffff_ffff;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Net values over a run, regrouped by 64-cycle block: one `u64` per net
/// per block, the layout a compiled sweep reads its nominal values from.
///
/// Bit `c % 64` of word `f` of block `c / 64` is net `f`'s value in cycle
/// `c`; [`CycleWindow::group`] hands a sweep one block and one bit. A
/// block is derived on first use, once, by the window's tracer (any
/// thread may get there first), so a window costs only the blocks its
/// users touch.
pub struct CycleWindow<'a> {
    nets: usize,
    cycles: usize,
    blocks: Vec<OnceLock<Box<[u64]>>>,
    tracer: Tracer<'a>,
}

/// Traces the cycles of one block (at most 64) on a window's netlist.
type Tracer<'a> = Box<dyn Fn(Range<usize>) -> PackedTraces + Send + Sync + 'a>;

impl std::fmt::Debug for CycleWindow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleWindow")
            .field("nets", &self.nets)
            .field("cycles", &self.cycles)
            .finish_non_exhaustive()
    }
}

impl<'a> CycleWindow<'a> {
    /// A window over `cycles` cycles of `netlist`'s nets whose block of
    /// cycles `r` is `tracer(r)`: the traces of those cycles, trace cycle
    /// `c` being cycle `r.start + c`.
    pub fn new(
        netlist: &Netlist,
        cycles: usize,
        tracer: impl Fn(Range<usize>) -> PackedTraces + Send + Sync + 'a,
    ) -> Self {
        Self {
            nets: netlist.len(),
            cycles,
            blocks: (0..cycles.div_ceil(64)).map(|_| OnceLock::new()).collect(),
            tracer: Box::new(tracer),
        }
    }

    /// The window of explicit per-cycle values, cycle `c` = `values[c]`.
    #[cfg(test)]
    pub(crate) fn from_cycles(netlist: &'a Netlist, values: Vec<crate::CycleValues>) -> Self {
        let cycles = values.len();
        Self::new(netlist, cycles, move |r| {
            let mut block = PackedTraces::zeroed(netlist, r.len());
            for (c, cv) in values[r].iter().enumerate() {
                for (id, _) in netlist.iter() {
                    block.set_value(id, c, cv.value(id));
                }
            }
            block
        })
    }

    /// Number of cycles covered.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// The per-net words of cycle `c`'s block and `c`'s bit in them.
    ///
    /// # Panics
    ///
    /// Panics when `c >= self.cycles()`, or when the tracer returns
    /// traces of another length or netlist.
    pub fn block(&self, c: usize) -> (&[u64], u32) {
        assert!(c < self.cycles, "cycle {c} out of range");
        let b = c / 64;
        let words = self.blocks[b].get_or_init(|| {
            let cycles = b * 64..(b * 64 + 64).min(self.cycles);
            let traces = (self.tracer)(cycles.clone());
            assert_eq!(traces.cycles(), cycles.len(), "tracer block length");
            assert_eq!(traces.data.len(), self.nets, "tracer block netlist");
            traces.data.into_boxed_slice()
        });
        (words, (c % 64) as u32)
    }

    /// The sweep group of `lanes` injecting in cycle `c`, named by `c`.
    pub fn group(&self, c: usize, lanes: WideMask) -> CycleGroup<'_> {
        let (words, bit) = self.block(c);
        CycleGroup {
            lanes,
            cycle: c,
            words,
            bit,
        }
    }
}

/// Fill in the traces of every combinational gate from the already-recorded
/// traces of the sources (inputs, constants) and DFF outputs.
///
/// The caller records register and primary-input traces into `traces`
/// beforehand (e.g. from RTL simulation); this sweep derives every other
/// node, 64 cycles at a time.
///
/// # Errors
///
/// Fails when the netlist has a combinational loop.
pub fn evaluate_combinational(
    netlist: &Netlist,
    traces: &mut PackedTraces,
) -> Result<(), NetlistError> {
    // The cached straight-line program replaces per-gate worklist
    // dispatch: one flat opcode loop in topological order, no per-word
    // fanin allocation.
    let program = netlist.program()?;
    // Constants first.
    for (id, gate) in netlist.iter() {
        if let CellKind::Const(v) = gate.kind {
            let fill = if v { !0u64 } else { 0u64 };
            for w in traces.trace_mut(id) {
                *w = fill;
            }
        }
    }
    let words = traces.words_per_gate;
    let mut ins: Vec<u64> = Vec::new();
    for i in 0..program.len() {
        let op = program.opcode(i);
        let out = GateId(program.out(i) as u32);
        for w in 0..words {
            ins.clear();
            for &f in program.fanins(i) {
                ins.push(traces.trace(GateId(f))[w]);
            }
            let v = op.eval_words(&ins);
            traces.trace_mut(out)[w] = v;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::CycleSim;
    use xlmc_netlist::CellKind;

    fn mixed_netlist() -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(CellKind::Xor, &[a, b]);
        let q_id = GateId(4);
        let d = n.add_gate(CellKind::Mux, &[x, q_id, a]);
        let q = n.add_dff("q", d);
        assert_eq!(q, q_id);
        let y = n.add_gate(CellKind::Nand, &[x, q]);
        n.add_output("y", y);
        n
    }

    #[test]
    fn bitparallel_matches_scalar_simulation() {
        let n = mixed_netlist();
        let sim = CycleSim::new(&n).unwrap();
        let cycles = 200usize;
        // Deterministic pseudo-random stimulus.
        let input_at = |c: usize| vec![(c * 7 + 3) % 5 < 2, (c * 13 + 1) % 7 < 3];
        let trace = sim.run(&n, &[false], cycles, input_at);

        // Record register + input traces, then bit-parallel fill.
        let mut packed = PackedTraces::zeroed(&n, cycles);
        let q = n.find("q").unwrap();
        for (c, cv) in trace.iter().enumerate() {
            let ins = input_at(c);
            for (i, &pi) in n.inputs().iter().enumerate() {
                packed.set_value(pi, c, ins[i]);
            }
            packed.set_value(q, c, cv.value(q));
        }
        evaluate_combinational(&n, &mut packed).unwrap();

        for (c, cv) in trace.iter().enumerate() {
            for (id, _) in n.iter() {
                assert_eq!(packed.value(id, c), cv.value(id), "gate {id} cycle {c}");
            }
        }
    }

    #[test]
    fn constants_fill_whole_trace() {
        let mut n = Netlist::new();
        let c1 = n.add_const(true);
        let inv = n.add_gate(CellKind::Not, &[c1]);
        n.add_output("y", inv);
        let mut packed = PackedTraces::zeroed(&n, 100);
        evaluate_combinational(&n, &mut packed).unwrap();
        for c in 0..100 {
            assert!(packed.value(c1, c));
            assert!(!packed.value(inv, c));
        }
    }

    #[test]
    fn set_and_get_roundtrip_across_word_boundary() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let _ = a;
        let mut packed = PackedTraces::zeroed(&n, 130);
        packed.set_value(a, 0, true);
        packed.set_value(a, 63, true);
        packed.set_value(a, 64, true);
        packed.set_value(a, 129, true);
        packed.set_value(a, 64, false);
        assert!(packed.value(a, 0));
        assert!(packed.value(a, 63));
        assert!(!packed.value(a, 64));
        assert!(packed.value(a, 129));
        assert!(!packed.value(a, 100));
    }

    #[test]
    fn set_trace_bulk() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let mut packed = PackedTraces::zeroed(&n, 8);
        packed.set_trace(a, &[true, false, true, true, false, false, true, false]);
        let got: Vec<bool> = (0..8).map(|c| packed.value(a, c)).collect();
        assert_eq!(
            got,
            vec![true, false, true, true, false, false, true, false]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cycle_panics() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let packed = PackedTraces::zeroed(&n, 10);
        let _ = packed.value(a, 10);
    }
}
