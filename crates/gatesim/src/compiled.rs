//! Compiled-program transient kernel: 256 strikes per straight-line sweep.
//!
//! Where [`crate::batch`] interprets the netlist gate-by-gate through a
//! rank-ordered worklist (`BinaryHeap`, `Gate` pointer chases,
//! `CellKind::eval_words` dispatch), this kernel evaluates the netlist's
//! pre-compiled [`GateProgram`]: a structure-of-arrays straight-line
//! program in topological order. Lanes widen from 64 to
//! [`WIDE_LANES`] = 256 (`[u64; 4]` per net), packing four times as many
//! Monte Carlo runs into every sweep, and the worklist becomes a dirty-op
//! bitmask scanned in program order — set-bit iteration over a few words
//! instead of heap pushes and pops, while still visiting only the union
//! fanout cone of the struck cells.
//!
//! # Equivalence contract
//!
//! Lane `l` of a compiled sweep is **bit-identical** to
//! [`TransientSim::strike_with`] with that lane's strike list, stable
//! values and strike time, by the same argument as the 64-lane kernel
//! (see `crate::batch`): the program order is a topological refinement of
//! the worklist's rank induction, seeding follows the same cell rules,
//! logical masking is the same packed nominal-vs-flipped comparison, and
//! the electrical max-fold runs over the fanins in pin order with the
//! identical `fold(0.0, f64::max)` seed and iterated attenuation. Only
//! the batch-shape counters (`gates_visited`) depend on the kernel.
//! Registers come out as sets (bit masks over DFF indices), so a lane's
//! direct upsets match the scalar list as a set, not as a sequence.

use xlmc_netlist::{GateProgram, NetClass, Netlist, Opcode};

use crate::batch::BatchLane;
use crate::cycle::CycleValues;
use crate::transient::TransientSim;
use xlmc_netlist::GateId;

/// Runs per compiled sweep: the lanes of a `[u64; 4]`.
pub const WIDE_LANES: usize = 256;

/// Packed words per net: `WIDE_LANES / 64`.
pub const LANE_WORDS: usize = 4;

/// A 256-lane mask, lane `l` = bit `l % 64` of word `l / 64`.
pub type WideMask = [u64; LANE_WORDS];

#[inline]
fn is_zero(m: &WideMask) -> bool {
    m.iter().all(|&w| w == 0)
}

/// The lanes of one compiled sweep that inject in the same cycle.
#[derive(Debug, Clone, Copy)]
pub struct CycleGroup<'a> {
    /// The group's lanes; groups of one sweep are disjoint.
    pub lanes: WideMask,
    /// A small dense id of the cycle (the injection cycle number). One
    /// scratch must only ever see one set of values under one id.
    pub cycle: usize,
    /// The cycle's stable net values.
    pub values: &'a CycleValues,
}

/// Per-lane results of one compiled strike sweep.
///
/// Registers are bit masks over DFF indices (bit `i` is
/// [`Netlist::dffs`]`[i]`), `dff_words` words per lane. Results are
/// defined for the lanes of the last sweep; a warm outcome allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct CompiledStrikeOutcome {
    latched: Vec<u64>,
    upset: Vec<u64>,
    dff_words: usize,
    pulses: Vec<usize>,
    gates_visited: usize,
}

impl Default for CompiledStrikeOutcome {
    fn default() -> Self {
        Self {
            latched: Vec::new(),
            upset: Vec::new(),
            dff_words: 0,
            pulses: vec![0; WIDE_LANES],
            gates_visited: 0,
        }
    }
}

impl CompiledStrikeOutcome {
    /// DFFs whose next-state bit lane `l`'s transient flipped, as a mask.
    pub fn latched_mask(&self, lane: usize) -> &[u64] {
        &self.latched[lane * self.dff_words..(lane + 1) * self.dff_words]
    }

    /// DFFs lane `l` struck directly (SEU), as a mask.
    pub fn upset_mask(&self, lane: usize) -> &[u64] {
        &self.upset[lane * self.dff_words..(lane + 1) * self.dff_words]
    }

    /// Lane `l`'s registers in error (latched ∪ upset), word by word.
    pub fn faulty_words(&self, lane: usize) -> impl Iterator<Item = u64> + '_ {
        self.latched_mask(lane)
            .iter()
            .zip(self.upset_mask(lane))
            .map(|(l, u)| l | u)
    }

    /// DFFs whose next-state bit lane `l`'s transient flipped (sorted).
    pub fn latched_dffs(&self, netlist: &Netlist, lane: usize) -> Vec<GateId> {
        let mut out = Vec::new();
        push_dffs(netlist, self.latched_mask(lane).iter().copied(), &mut out);
        out
    }

    /// DFFs lane `l` struck directly (SEU), sorted and deduplicated.
    pub fn upset_dffs(&self, netlist: &Netlist, lane: usize) -> Vec<GateId> {
        let mut out = Vec::new();
        push_dffs(netlist, self.upset_mask(lane).iter().copied(), &mut out);
        out
    }

    /// Number of gates that carried a propagating pulse in lane `l`.
    pub fn pulses_propagated(&self, lane: usize) -> usize {
        self.pulses[lane]
    }

    /// Ops popped from the dirty-op scan for the whole sweep (an op
    /// serving many lanes is visited once). Kernel-shape: comparable to
    /// the worklist pop count, not to the scalar kernel's per-run visits.
    pub fn gates_visited(&self) -> usize {
        self.gates_visited
    }

    /// Lane `l`'s registers in error (deduplicated, sorted), identical to
    /// [`crate::transient::StrikeOutcome::faulty_registers_into`].
    pub fn faulty_registers_into(&self, netlist: &Netlist, lane: usize, out: &mut Vec<GateId>) {
        out.clear();
        push_dffs(netlist, self.faulty_words(lane), out);
    }

    fn clear(&mut self, lanes: usize, dffs: usize) {
        self.dff_words = dffs.div_ceil(64);
        let words = WIDE_LANES * self.dff_words;
        if self.latched.len() != words {
            self.latched.resize(words, 0);
            self.upset.resize(words, 0);
        }
        let used = lanes.max(1) * self.dff_words;
        self.latched[..used].fill(0);
        self.upset[..used].fill(0);
        self.pulses.iter_mut().for_each(|p| *p = 0);
        self.gates_visited = 0;
    }

    #[inline]
    fn mark(mask: &mut [u64], dff_words: usize, lane: usize, dff: usize) {
        mask[lane * dff_words + dff / 64] |= 1u64 << (dff % 64);
    }
}

/// Append the DFFs of a mask over DFF indices to `out`, ascending.
fn push_dffs(netlist: &Netlist, words: impl Iterator<Item = u64>, out: &mut Vec<GateId>) {
    for (k, mut w) in words.enumerate() {
        while w != 0 {
            out.push(netlist.dffs()[k * 64 + w.trailing_zeros() as usize]);
            w &= w - 1;
        }
    }
}

/// Reusable buffers for [`TransientSim::strike_compiled_with`].
///
/// One scratch per worker. Pulse and seed masks reset through the
/// `touched` list (O(cone)); the dirty-op bitmask is consumed back to zero
/// by the sweep itself.
///
/// Pulse timing is rank-indexed rather than stored per (net, lane): a
/// seeded lane's pulse is always `(lane strike time,
/// initial_duration_ps)`, and every other lane of net `f` was appended by
/// `f`'s op — which runs at most once per sweep — in lane order. Lane `l`
/// of `f` is therefore at `base[f][l / 64]` plus the number of
/// op-propagated lanes of `f` below `l` in that word, and the timing pools
/// hold one entry per propagated pulse instead of nets × [`WIDE_LANES`].
///
/// Nominal values are packed per cycle *slot*: the first sweep that names
/// a [`CycleGroup::cycle`] gives it the next slot and writes its values
/// into one bit per net, 64 slots per word. A net's nominal word in a
/// sweep is then the OR of the lane masks of its set, active slots. A
/// scratch is therefore valid against one set of cycle values per id:
/// keep one per worker and campaign.
#[derive(Debug, Default)]
pub struct CompiledTransientScratch {
    /// Per net: 256-lane mask of pulses at this net.
    pulse: Vec<WideMask>,
    /// Per net: lanes whose pulse was seeded by the strike itself.
    seed: Vec<WideMask>,
    /// Per lane: strike time of the current sweep.
    lane_time: Vec<f64>,
    /// Per net and lane word: pool index of the word's first
    /// op-propagated lane, valid iff `pulse & !seed` is nonzero.
    base: Vec<[u32; LANE_WORDS]>,
    /// Pulse start of each op-propagated (net, lane), cleared per sweep.
    pool_start: Vec<f64>,
    /// Pulse duration, parallel to `pool_start`.
    pool_dur: Vec<f64>,
    /// Nets whose pulse mask is nonzero (for O(cone) reset).
    touched: Vec<u32>,
    /// One bit per op: pending evaluation. Consumed in program order.
    dirty: Vec<u64>,
    /// Nets the slot words were written for.
    slot_nets: usize,
    /// Per block of 64 slots, per net: bit `s % 64` of
    /// `slot_words[(s / 64) * slot_nets + f]` is net `f`'s value in slot `s`.
    slot_words: Vec<u64>,
    /// Slot of each cycle id, `u32::MAX` before the id's first sweep.
    slot_of: Vec<u32>,
    /// Per slot: the current sweep's lanes in that slot.
    slot_lanes: Vec<WideMask>,
    /// Per block of 64 slots: the slots the current sweep uses.
    active: Vec<u64>,
    /// Per block of 64 slots: the current sweep's lanes in its slots.
    block_lanes: Vec<WideMask>,
}

impl CompiledTransientScratch {
    /// The slot of `group`'s cycle, writing its values into the slot words
    /// on first sight.
    fn slot(&mut self, group: &CycleGroup<'_>) -> usize {
        if group.cycle >= self.slot_of.len() {
            self.slot_of.resize(group.cycle + 1, u32::MAX);
        }
        if self.slot_of[group.cycle] == u32::MAX {
            let s = self.slot_lanes.len();
            if s.is_multiple_of(64) {
                self.slot_words
                    .resize(self.slot_words.len() + self.slot_nets, 0);
                self.active.push(0);
                self.block_lanes.push([0; LANE_WORDS]);
            }
            self.slot_lanes.push([0; LANE_WORDS]);
            let block = &mut self.slot_words[(s / 64) * self.slot_nets..][..self.slot_nets];
            let bit = 1u64 << (s % 64);
            for (w, &v) in block.iter_mut().zip(group.values.values()) {
                if v {
                    *w |= bit;
                }
            }
            self.slot_of[group.cycle] = s as u32;
        }
        self.slot_of[group.cycle] as usize
    }

    /// Net `f`'s nominal value in every lane of the current sweep.
    #[inline]
    fn nominal(&self, f: usize) -> WideMask {
        let mut w = [0u64; LANE_WORDS];
        for (b, &act) in self.active.iter().enumerate() {
            let word = self.slot_words[b * self.slot_nets + f];
            let (set, unset) = (word & act, !word & act);
            // Slots hold disjoint lanes, so the set slots' lanes are the
            // block's lanes minus the unset slots' lanes: walk the shorter
            // list (none at all for a net constant across the sweep).
            let (mut slots, base) = if set == 0 {
                continue;
            } else if unset != 0 && set.count_ones() <= unset.count_ones() {
                (set, [0; LANE_WORDS])
            } else {
                (unset, self.block_lanes[b])
            };
            let mut acc = [0u64; LANE_WORDS];
            while slots != 0 {
                let m = &self.slot_lanes[b * 64 + slots.trailing_zeros() as usize];
                slots &= slots - 1;
                for k in 0..LANE_WORDS {
                    acc[k] |= m[k];
                }
            }
            for k in 0..LANE_WORDS {
                w[k] |= base[k] ^ acc[k];
            }
        }
        w
    }

    /// `(start, duration)` of the pulse at net `f` in lane `l` (the lane
    /// bit must be set in `pulse[f]`).
    #[inline]
    fn timing(&self, f: usize, l: usize, initial_duration_ps: f64) -> (f64, f64) {
        let (k, bit) = (l / 64, 1u64 << (l % 64));
        let (p, s) = (&self.pulse[f], &self.seed[f]);
        if s[k] & bit != 0 {
            return (self.lane_time[l], initial_duration_ps);
        }
        let i = self.base[f][k] as usize + (p[k] & !s[k] & (bit - 1)).count_ones() as usize;
        (self.pool_start[i], self.pool_dur[i])
    }
}

impl TransientSim {
    /// Simulate up to [`WIDE_LANES`] independent strikes in one compiled
    /// straight-line sweep over `program`.
    ///
    /// `program` must be the compiled program of `netlist` (normally
    /// `netlist.program()`); `groups` supplies the stable cycle values
    /// as disjoint 256-lane masks. Per-lane results are bit-identical to
    /// the scalar [`TransientSim::strike_with`] per the module contract.
    ///
    /// # Panics
    ///
    /// Panics when `lanes.len() > WIDE_LANES`.
    pub fn strike_compiled_with(
        &self,
        netlist: &Netlist,
        program: &GateProgram,
        groups: &[CycleGroup<'_>],
        lanes: &[BatchLane<'_>],
        scratch: &mut CompiledTransientScratch,
        outcome: &mut CompiledStrikeOutcome,
    ) {
        assert!(lanes.len() <= WIDE_LANES, "batch of {} lanes", lanes.len());
        debug_assert_eq!(
            program.nets(),
            netlist.len(),
            "program was compiled from a different netlist"
        );
        outcome.clear(lanes.len(), netlist.dffs().len());
        let dff_words = outcome.dff_words;

        let nets = program.nets();
        let ops = program.len();
        let dirty_words = ops.div_ceil(64);
        if scratch.pulse.len() < nets {
            scratch.pulse.resize(nets, [0; LANE_WORDS]);
            scratch.seed.resize(nets, [0; LANE_WORDS]);
            scratch.base.resize(nets, [0; LANE_WORDS]);
        }
        if scratch.slot_nets != nets {
            scratch.slot_nets = nets;
            scratch.slot_words.clear();
            scratch.slot_of.clear();
            scratch.slot_lanes.clear();
            scratch.active.clear();
            scratch.block_lanes.clear();
        }
        if scratch.dirty.len() < dirty_words {
            scratch.dirty.resize(dirty_words, 0);
        }
        scratch.lane_time.resize(WIDE_LANES, 0.0);
        scratch.pool_start.clear();
        scratch.pool_dur.clear();
        debug_assert!(scratch.touched.is_empty());
        debug_assert!(scratch.dirty.iter().all(|&w| w == 0));
        debug_assert!(
            {
                let covered = groups.iter().fold([0u64; LANE_WORDS], |mut m, g| {
                    for (w, lanes) in m.iter_mut().zip(g.lanes) {
                        *w |= lanes;
                    }
                    m
                });
                lanes.iter().enumerate().all(|(l, lane)| {
                    lane.struck.is_empty() || covered[l / 64] & (1u64 << (l % 64)) != 0
                })
            },
            "a striking lane has no cycle-value group"
        );
        for group in groups {
            let s = scratch.slot(group);
            for k in 0..LANE_WORDS {
                debug_assert_eq!(scratch.block_lanes[s / 64][k] & group.lanes[k], 0);
                scratch.slot_lanes[s][k] |= group.lanes[k];
                scratch.block_lanes[s / 64][k] |= group.lanes[k];
            }
            scratch.active[s / 64] |= 1u64 << (s % 64);
        }

        // Seed every lane's struck cells (same rules as the scalar kernel:
        // DFFs upset, source/marker cells inert, combinational cells pulse).
        let cfg = *self.config();
        for (l, lane) in lanes.iter().enumerate() {
            let (word, bit) = (l / 64, 1u64 << (l % 64));
            scratch.lane_time[l] = lane.strike_time_ps;
            for &g in lane.struck {
                match program.net_class(g.index()) {
                    NetClass::Dff => {
                        let i = program.dff_index(g.index()).expect("a Dff net is a DFF");
                        CompiledStrikeOutcome::mark(&mut outcome.upset, dff_words, l, i);
                    }
                    NetClass::Inert => {}
                    NetClass::Comb => {
                        let gi = g.index();
                        let pl = &mut scratch.pulse[gi];
                        if is_zero(pl) {
                            scratch.touched.push(gi as u32);
                        }
                        if pl[word] & bit == 0 {
                            outcome.pulses[l] += 1;
                        }
                        pl[word] |= bit;
                        scratch.seed[gi][word] |= bit;
                    }
                }
            }
        }

        // Mark the consumers of every seeded net, then sweep the dirty ops
        // in program order. Consumers always sit at higher op indices than
        // their producers (topological order), so a pulse created mid-sweep
        // only ever marks ops the scan has not yet consumed.
        for i in 0..scratch.touched.len() {
            for &c in program.consumers(scratch.touched[i] as usize) {
                scratch.dirty[(c / 64) as usize] |= 1u64 << (c % 64);
            }
        }
        let mut w = 0usize;
        while w < dirty_words {
            let b = scratch.dirty[w];
            if b == 0 {
                w += 1;
                continue;
            }
            let i = b.trailing_zeros() as usize;
            scratch.dirty[w] &= !(1u64 << i);
            let op = w * 64 + i;
            outcome.gates_visited += 1;

            let out = program.out(op);
            let existing = scratch.pulse[out];
            let fis = program.fanins(op);
            let mut any = [0u64; LANE_WORDS];
            for &f in fis {
                let p = &scratch.pulse[f as usize];
                for k in 0..LANE_WORDS {
                    any[k] |= p[k];
                }
            }
            let mut candidates = [0u64; LANE_WORDS];
            let mut have = 0u64;
            for k in 0..LANE_WORDS {
                candidates[k] = any[k] & !existing[k];
                have |= candidates[k];
            }
            if have == 0 {
                continue;
            }

            // Logical masking, all 256 lanes at once: flip each fanin
            // exactly in the lanes where it pulses and compare the packed
            // outputs (same fold identities as `CellKind::eval_words`).
            let mut flips = eval_flips(program.opcode(op), fis, scratch);
            let mut have = 0u64;
            for k in 0..LANE_WORDS {
                flips[k] &= candidates[k];
                have |= flips[k];
            }
            if have == 0 {
                continue;
            }

            // Electrical masking per surviving lane: the scalar kernel's
            // exact max-fold and iterated attenuation, fanins in pin order.
            // This op runs once per sweep, so its surviving lanes are
            // appended to the pools in lane order from `base[out]`.
            let delay = program.delay_ps(op);
            let mut new_lanes = [0u64; LANE_WORDS];
            for k in 0..LANE_WORDS {
                scratch.base[out][k] = scratch.pool_start.len() as u32;
                let mut fl = flips[k];
                while fl != 0 {
                    let l = k * 64 + fl.trailing_zeros() as usize;
                    fl &= fl - 1;
                    let bit = 1u64 << (l % 64);
                    let mut max_duration = 0.0f64;
                    let mut max_start = 0.0f64;
                    for &f in fis {
                        let fi = f as usize;
                        if scratch.pulse[fi][k] & bit != 0 {
                            let (start, dur) = scratch.timing(fi, l, cfg.initial_duration_ps);
                            max_duration = max_duration.max(dur);
                            max_start = max_start.max(start);
                        }
                    }
                    let duration = max_duration - cfg.attenuation_ps;
                    if duration < cfg.min_duration_ps {
                        continue;
                    }
                    scratch.pool_start.push(max_start + delay);
                    scratch.pool_dur.push(duration);
                    new_lanes[k] |= bit;
                    outcome.pulses[l] += 1;
                }
            }
            if is_zero(&new_lanes) {
                continue;
            }
            if is_zero(&scratch.pulse[out]) {
                scratch.touched.push(out as u32);
            }
            for (k, &nl) in new_lanes.iter().enumerate() {
                scratch.pulse[out][k] |= nl;
            }
            for &c in program.consumers(out) {
                scratch.dirty[(c / 64) as usize] |= 1u64 << (c % 64);
            }
        }

        // Latching-window masking at each DFF's D pin, per lane.
        let window_lo = cfg.clock_period_ps - cfg.setup_ps;
        let window_hi = cfg.clock_period_ps + cfg.hold_ps;
        for (i, &(_, d)) in program.dff_d().iter().enumerate() {
            let d = d as usize;
            for k in 0..LANE_WORDS {
                let mut pl = scratch.pulse[d][k];
                while pl != 0 {
                    let l = k * 64 + pl.trailing_zeros() as usize;
                    pl &= pl - 1;
                    let (pulse_lo, dur) = scratch.timing(d, l, cfg.initial_duration_ps);
                    let pulse_hi = pulse_lo + dur;
                    if pulse_lo <= window_hi && pulse_hi >= window_lo {
                        CompiledStrikeOutcome::mark(&mut outcome.latched, dff_words, l, i);
                    }
                }
            }
        }

        for &g in &scratch.touched {
            scratch.pulse[g as usize] = [0; LANE_WORDS];
            scratch.seed[g as usize] = [0; LANE_WORDS];
        }
        scratch.touched.clear();
        for b in 0..scratch.active.len() {
            scratch.block_lanes[b] = [0; LANE_WORDS];
            let mut slots = std::mem::take(&mut scratch.active[b]);
            while slots != 0 {
                scratch.slot_lanes[b * 64 + slots.trailing_zeros() as usize] = [0; LANE_WORDS];
                slots &= slots - 1;
            }
        }
    }
}

/// `(nominal_out ^ flipped_out)` for one op over all 256 lanes, folding
/// the fanins in pin order with the identities of
/// [`CellKind::eval_words`].
#[inline]
fn eval_flips(op: Opcode, fis: &[u32], scratch: &CompiledTransientScratch) -> WideMask {
    #[inline]
    fn operand(scratch: &CompiledTransientScratch, f: u32) -> (WideMask, WideMask) {
        let fi = f as usize;
        let nom = scratch.nominal(fi);
        let p = scratch.pulse[fi];
        let mut flip = nom;
        for k in 0..LANE_WORDS {
            flip[k] ^= p[k];
        }
        (nom, flip)
    }
    let mut out = [0u64; LANE_WORDS];
    match op {
        // Inversions at the output cancel in the XOR of nominal and
        // flipped, so Buf/Not, And/Nand, Or/Nor and Xor/Xnor share flip
        // computations. A one-input cell flips exactly where its fanin
        // pulses, and nominal ^ flipped of a parity tree is the parity of
        // the per-fanin flips, i.e. the XOR of the pulse masks.
        Opcode::Buf | Opcode::Not | Opcode::Xor | Opcode::Xnor => {
            for &f in fis {
                let p = &scratch.pulse[f as usize];
                for k in 0..LANE_WORDS {
                    out[k] ^= p[k];
                }
            }
        }
        Opcode::And | Opcode::Nand => {
            let mut nacc = [!0u64; LANE_WORDS];
            let mut facc = [!0u64; LANE_WORDS];
            for &f in fis {
                let (nom, flip) = operand(scratch, f);
                for k in 0..LANE_WORDS {
                    nacc[k] &= nom[k];
                    facc[k] &= flip[k];
                }
            }
            for k in 0..LANE_WORDS {
                out[k] = nacc[k] ^ facc[k];
            }
        }
        Opcode::Or | Opcode::Nor => {
            let mut nacc = [0u64; LANE_WORDS];
            let mut facc = [0u64; LANE_WORDS];
            for &f in fis {
                let (nom, flip) = operand(scratch, f);
                for k in 0..LANE_WORDS {
                    nacc[k] |= nom[k];
                    facc[k] |= flip[k];
                }
            }
            for k in 0..LANE_WORDS {
                out[k] = nacc[k] ^ facc[k];
            }
        }
        Opcode::Mux => {
            let (sn, sf) = operand(scratch, fis[0]);
            let (an, af) = operand(scratch, fis[1]);
            let (bn, bf) = operand(scratch, fis[2]);
            for k in 0..LANE_WORDS {
                let nom = (!sn[k] & an[k]) | (sn[k] & bn[k]);
                let flip = (!sf[k] & af[k]) | (sf[k] & bf[k]);
                out[k] = nom ^ flip;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchStrikeOutcome, BatchTransientScratch};
    use crate::cycle::CycleSim;
    use crate::transient::{StrikeOutcome, TransientConfig, TransientScratch};
    use xlmc_netlist::{CellKind, GateId, Netlist};

    struct Xs(u64);
    impl Xs {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn random_netlist(seed: u64, inputs: usize, gates: usize) -> Netlist {
        let mut rng = Xs(seed | 1);
        let mut n = Netlist::new();
        let mut nets: Vec<GateId> = (0..inputs).map(|i| n.add_input(format!("i{i}"))).collect();
        let kinds = [
            CellKind::And,
            CellKind::Or,
            CellKind::Nand,
            CellKind::Nor,
            CellKind::Xor,
            CellKind::Xnor,
            CellKind::Not,
            CellKind::Buf,
            CellKind::Mux,
        ];
        for gi in 0..gates {
            let kind = kinds[rng.below(kinds.len())];
            let arity = match kind {
                CellKind::Not | CellKind::Buf => 1,
                CellKind::Mux => 3,
                _ => 2,
            };
            let fanin: Vec<GateId> = (0..arity).map(|_| nets[rng.below(nets.len())]).collect();
            let g = n.add_gate(kind, &fanin);
            nets.push(g);
            if gi % 4 == 3 {
                n.add_dff(format!("q{gi}"), g);
            }
        }
        n.add_output("y", *nets.last().unwrap());
        n
    }

    /// A strike's register list as the kernel reports it: a set.
    fn as_set(dffs: &[GateId]) -> Vec<GateId> {
        let mut v = dffs.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn tight() -> TransientConfig {
        TransientConfig {
            clock_period_ps: 600.0,
            setup_ps: 90.0,
            hold_ps: 40.0,
            initial_duration_ps: 120.0,
            attenuation_ps: 9.0,
            min_duration_ps: 15.0,
        }
    }

    /// The core property: every lane of the compiled kernel is
    /// bit-identical to the scalar kernel, across random netlists, random
    /// strikes, mixed strike times and mixed injection cycles, including
    /// partial batches around both the 64 and 256 lane boundaries.
    #[test]
    fn compiled_lanes_match_scalar_strikes() {
        let lane_counts = [1usize, 63, 64, 65, 200, 255, 256];
        for (seed, &lane_count) in (1u64..).zip(lane_counts.iter()) {
            let n = random_netlist(seed * 0x9E37, 6, 120);
            let program = n.program().unwrap();
            let sim = CycleSim::new(&n).unwrap();
            let dffs = n.dffs().len();
            let mut rng = Xs(seed.wrapping_mul(0xA5A5_1234) | 1);
            let vec_for = |r: &mut Xs, len: usize| -> Vec<bool> {
                (0..len).map(|_| r.next() & 1 == 1).collect()
            };
            let cv_a = sim.eval(&n, &vec_for(&mut rng, dffs), &vec_for(&mut rng, 6));
            let cv_b = sim.eval(&n, &vec_for(&mut rng, dffs), &vec_for(&mut rng, 6));
            let ts = TransientSim::new(&n, tight()).unwrap();

            let candidates: Vec<GateId> = n.iter().map(|(id, _)| id).collect();
            let strikes: Vec<(Vec<GateId>, f64)> = (0..lane_count)
                .map(|_| {
                    let k = rng.below(5);
                    let cells: Vec<GateId> = (0..k)
                        .map(|_| candidates[rng.below(candidates.len())])
                        .collect();
                    let t = (rng.below(600)) as f64;
                    (cells, t)
                })
                .collect();
            let mut mask_a = [0u64; LANE_WORDS];
            let mut mask_b = [0u64; LANE_WORDS];
            for l in 0..lane_count {
                let m = if l % 3 != 0 { &mut mask_a } else { &mut mask_b };
                m[l / 64] |= 1u64 << (l % 64);
            }
            let lanes: Vec<BatchLane> = strikes
                .iter()
                .map(|(cells, t)| BatchLane {
                    struck: cells,
                    strike_time_ps: *t,
                })
                .collect();

            let mut cscratch = CompiledTransientScratch::default();
            let mut cout = CompiledStrikeOutcome::default();
            ts.strike_compiled_with(
                &n,
                program,
                &[
                    CycleGroup {
                        lanes: mask_a,
                        cycle: 0,
                        values: &cv_a,
                    },
                    CycleGroup {
                        lanes: mask_b,
                        cycle: 1,
                        values: &cv_b,
                    },
                ],
                &lanes,
                &mut cscratch,
                &mut cout,
            );

            let mut sscratch = TransientScratch::default();
            let mut sout = StrikeOutcome::default();
            for (l, (cells, t)) in strikes.iter().enumerate() {
                let cv = if mask_a[l / 64] & (1u64 << (l % 64)) != 0 {
                    &cv_a
                } else {
                    &cv_b
                };
                ts.strike_with(&n, cv, cells, *t, &mut sscratch, &mut sout);
                assert_eq!(
                    cout.latched_dffs(&n, l),
                    &sout.latched_dffs[..],
                    "seed {seed} lane {l} latched"
                );
                assert_eq!(
                    cout.upset_dffs(&n, l),
                    as_set(&sout.upset_dffs),
                    "seed {seed} lane {l} upset"
                );
                assert_eq!(
                    cout.pulses_propagated(l),
                    sout.pulses_propagated,
                    "seed {seed} lane {l} pulse count"
                );
                let mut want = Vec::new();
                sout.faulty_registers_into(&mut want);
                let mut got = Vec::new();
                cout.faulty_registers_into(&n, l, &mut got);
                assert_eq!(got, want, "seed {seed} lane {l} faulty registers");
            }
        }
    }

    /// Compiled and 64-lane batched kernels agree lane-for-lane when both
    /// can run the batch (≤ 64 lanes).
    #[test]
    fn compiled_matches_batched_kernel() {
        for seed in [11u64, 29, 47] {
            let n = random_netlist(seed * 0x51F0, 5, 90);
            let program = n.program().unwrap();
            let sim = CycleSim::new(&n).unwrap();
            let dffs = n.dffs().len();
            let mut rng = Xs(seed | 1);
            let vec_for = |r: &mut Xs, len: usize| -> Vec<bool> {
                (0..len).map(|_| r.next() & 1 == 1).collect()
            };
            let cv = sim.eval(&n, &vec_for(&mut rng, dffs), &vec_for(&mut rng, 5));
            let ts = TransientSim::new(&n, tight()).unwrap();
            let candidates: Vec<GateId> = n.iter().map(|(id, _)| id).collect();
            let strikes: Vec<Vec<GateId>> = (0..64)
                .map(|_| {
                    (0..rng.below(4))
                        .map(|_| candidates[rng.below(candidates.len())])
                        .collect()
                })
                .collect();
            let lanes: Vec<BatchLane> = strikes
                .iter()
                .map(|cells| BatchLane {
                    struck: cells,
                    strike_time_ps: 450.0,
                })
                .collect();

            let mut bscratch = BatchTransientScratch::default();
            let mut bout = BatchStrikeOutcome::default();
            ts.strike_batch_with(&n, &[(!0u64, &cv)], &lanes, &mut bscratch, &mut bout);

            let mut cscratch = CompiledTransientScratch::default();
            let mut cout = CompiledStrikeOutcome::default();
            let wide_mask: WideMask = [!0u64, 0, 0, 0];
            ts.strike_compiled_with(
                &n,
                program,
                &[CycleGroup {
                    lanes: wide_mask,
                    cycle: 0,
                    values: &cv,
                }],
                &lanes,
                &mut cscratch,
                &mut cout,
            );

            for l in 0..64 {
                assert_eq!(
                    cout.latched_dffs(&n, l),
                    bout.latched_dffs(l),
                    "seed {seed} lane {l}"
                );
                assert_eq!(
                    cout.upset_dffs(&n, l),
                    as_set(bout.upset_dffs(l)),
                    "seed {seed} lane {l}"
                );
                assert_eq!(
                    cout.pulses_propagated(l),
                    bout.pulses_propagated(l),
                    "seed {seed} lane {l}"
                );
            }
        }
    }

    /// Scratch reuse across sweeps must not leak pulses between calls.
    #[test]
    fn compiled_scratch_reuse_is_clean() {
        let n = random_netlist(0xFEED, 4, 60);
        let program = n.program().unwrap();
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &vec![true; n.dffs().len()], &[true, false, true, false]);
        let ts = TransientSim::new(&n, tight()).unwrap();
        let candidates: Vec<GateId> = n.iter().map(|(id, _)| id).collect();
        let mut scratch = CompiledTransientScratch::default();
        let mut out = CompiledStrikeOutcome::default();
        let mut rng = Xs(77);
        for round in 0..8 {
            let strikes: Vec<Vec<GateId>> = (0..97)
                .map(|_| {
                    (0..rng.below(4))
                        .map(|_| candidates[rng.below(candidates.len())])
                        .collect()
                })
                .collect();
            let lanes: Vec<BatchLane> = strikes
                .iter()
                .map(|cells| BatchLane {
                    struck: cells,
                    strike_time_ps: 500.0,
                })
                .collect();
            let all: WideMask = [!0u64; LANE_WORDS];
            let groups = [CycleGroup {
                lanes: all,
                cycle: 0,
                values: &cv,
            }];
            ts.strike_compiled_with(&n, program, &groups, &lanes, &mut scratch, &mut out);
            for (l, cells) in strikes.iter().enumerate() {
                let fresh = ts.strike(&n, &cv, cells, 500.0);
                assert_eq!(
                    out.latched_dffs(&n, l),
                    &fresh.latched_dffs[..],
                    "round {round}"
                );
                assert_eq!(
                    out.upset_dffs(&n, l),
                    as_set(&fresh.upset_dffs),
                    "round {round}"
                );
            }
        }
    }

    /// A net seeded in some lanes and reached by its op in others reads
    /// each lane's timing from the right place: the lane strike time for
    /// seeded lanes, the rank-indexed pool entry for propagated ones.
    /// Lanes `l % 3 == 0` strike `n2` (0, 63, 255: seeded), `l % 3 == 1`
    /// strike `n1` so `n2`'s op reaches them (64, 127), and `l % 3 == 2`
    /// strike both (128), across all four lane words.
    #[test]
    fn seeded_and_propagated_lanes_of_one_net_match_scalar() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let n1 = n.add_gate(CellKind::Buf, &[a]);
        let n2 = n.add_gate(CellKind::Not, &[n1]);
        let n3 = n.add_gate(CellKind::Buf, &[n2]);
        let n4 = n.add_gate(CellKind::And, &[n2, b]);
        let n5 = n.add_gate(CellKind::Or, &[n2, n1]);
        let q2 = n.add_dff("q2", n2);
        for (name, g) in [("q3", n3), ("q4", n4), ("q5", n5)] {
            n.add_dff(name, g);
        }
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &vec![false; n.dffs().len()], &[false, true]);
        let ts = TransientSim::new(&n, tight()).unwrap();

        let strikes: Vec<(Vec<GateId>, f64)> = (0..WIDE_LANES)
            .map(|l| {
                let cells = match l % 3 {
                    0 => vec![n2],
                    1 => vec![n1],
                    _ => vec![n1, n2],
                };
                (cells, ((l * 37) % 700) as f64)
            })
            .collect();
        let lanes: Vec<BatchLane> = strikes
            .iter()
            .map(|(cells, t)| BatchLane {
                struck: cells,
                strike_time_ps: *t,
            })
            .collect();
        let mut scratch = CompiledTransientScratch::default();
        let mut out = CompiledStrikeOutcome::default();
        let all: WideMask = [!0u64; LANE_WORDS];
        ts.strike_compiled_with(
            &n,
            n.program().unwrap(),
            &[CycleGroup {
                lanes: all,
                cycle: 0,
                values: &cv,
            }],
            &lanes,
            &mut scratch,
            &mut out,
        );

        let mut sscratch = TransientScratch::default();
        let mut sout = StrikeOutcome::default();
        let mut latched_q2 = 0;
        for (l, (cells, t)) in strikes.iter().enumerate() {
            ts.strike_with(&n, &cv, cells, *t, &mut sscratch, &mut sout);
            assert_eq!(
                out.latched_dffs(&n, l),
                &sout.latched_dffs[..],
                "lane {l} latched"
            );
            assert_eq!(
                out.upset_dffs(&n, l),
                as_set(&sout.upset_dffs),
                "lane {l} upset"
            );
            assert_eq!(
                out.pulses_propagated(l),
                sout.pulses_propagated,
                "lane {l} pulse count"
            );
            latched_q2 += usize::from(out.latched_dffs(&n, l).contains(&q2));
        }
        // The strike times must straddle the latching window, or timing
        // would not be exercised at all.
        assert!(latched_q2 > 0 && latched_q2 < WIDE_LANES, "{latched_q2}");
    }

    /// The timing pools grow with the pulses a sweep propagates, never
    /// with nets × lanes.
    #[test]
    fn timing_pools_hold_only_propagated_pulses() {
        let n = random_netlist(0x7157, 8, 1_200);
        assert!(n.len() >= 1_000, "{} nets", n.len());
        let sim = CycleSim::new(&n).unwrap();
        let mut rng = Xs(0xC0FFEE);
        let state: Vec<bool> = (0..n.dffs().len()).map(|_| rng.next() & 1 == 1).collect();
        let inputs: Vec<bool> = (0..8).map(|_| rng.next() & 1 == 1).collect();
        let cv = sim.eval(&n, &state, &inputs);
        let ts = TransientSim::new(&n, tight()).unwrap();
        let candidates: Vec<GateId> = n.iter().map(|(id, _)| id).collect();
        let strikes: Vec<(Vec<GateId>, f64)> = (0..WIDE_LANES)
            .map(|_| {
                let cells = (0..1 + rng.below(4))
                    .map(|_| candidates[rng.below(candidates.len())])
                    .collect();
                (cells, rng.below(600) as f64)
            })
            .collect();
        let lanes: Vec<BatchLane> = strikes
            .iter()
            .map(|(cells, t)| BatchLane {
                struck: cells,
                strike_time_ps: *t,
            })
            .collect();
        let mut scratch = CompiledTransientScratch::default();
        let mut out = CompiledStrikeOutcome::default();
        let all: WideMask = [!0u64; LANE_WORDS];
        // Twice on one scratch: the second sweep must not keep the first's
        // entries.
        for sweep in 0..2 {
            ts.strike_compiled_with(
                &n,
                n.program().unwrap(),
                &[CycleGroup {
                    lanes: all,
                    cycle: 0,
                    values: &cv,
                }],
                &lanes,
                &mut scratch,
                &mut out,
            );
            let pulses: usize = (0..WIDE_LANES).map(|l| out.pulses_propagated(l)).sum();
            let entries = scratch.pool_start.len();
            assert_eq!(entries, scratch.pool_dur.len());
            assert!(entries > 0, "the sweep must propagate past its seeds");
            assert!(
                entries <= pulses,
                "sweep {sweep}: {entries} pool entries for {pulses} pulses"
            );
            for cap in [scratch.pool_start.capacity(), scratch.pool_dur.capacity()] {
                assert!(
                    cap <= 2 * pulses,
                    "sweep {sweep}: capacity {cap} for {pulses} pulses"
                );
            }
        }
    }

    /// Cycle slots are packed 64 to a word: sweeps on one scratch that
    /// name more than 64 cycles, revisit earlier ones and put several
    /// groups in one lane word all read each lane's own cycle values.
    #[test]
    fn cycle_slots_past_one_word_match_scalar() {
        let n = random_netlist(0x5107, 6, 150);
        let program = n.program().unwrap();
        let sim = CycleSim::new(&n).unwrap();
        let mut rng = Xs(0xD1CE);
        let cycles: Vec<CycleValues> = (0..150)
            .map(|_| {
                let state: Vec<bool> = (0..n.dffs().len()).map(|_| rng.next() & 1 == 1).collect();
                let inputs: Vec<bool> = (0..6).map(|_| rng.next() & 1 == 1).collect();
                sim.eval(&n, &state, &inputs)
            })
            .collect();
        let ts = TransientSim::new(&n, tight()).unwrap();
        let candidates: Vec<GateId> = n.iter().map(|(id, _)| id).collect();
        let mut scratch = CompiledTransientScratch::default();
        let mut out = CompiledStrikeOutcome::default();
        let mut sscratch = TransientScratch::default();
        let mut sout = StrikeOutcome::default();
        // First sweep: cycles 0..90 (two slot words); second: 60..150, half
        // of them already slotted; third: every lane on one old cycle.
        for (sweep, (first, spread)) in [(0usize, 90usize), (60, 90), (7, 1)].iter().enumerate() {
            let cycle_of: Vec<usize> = (0..WIDE_LANES)
                .map(|l| first + l * spread / WIDE_LANES)
                .collect();
            let mut groups: Vec<CycleGroup> = Vec::new();
            for (l, &c) in cycle_of.iter().enumerate() {
                if groups.last().is_none_or(|g| g.cycle != c) {
                    groups.push(CycleGroup {
                        lanes: [0; LANE_WORDS],
                        cycle: c,
                        values: &cycles[c],
                    });
                }
                groups.last_mut().unwrap().lanes[l / 64] |= 1u64 << (l % 64);
            }
            let strikes: Vec<(Vec<GateId>, f64)> = (0..WIDE_LANES)
                .map(|_| {
                    let cells = (0..1 + rng.below(3))
                        .map(|_| candidates[rng.below(candidates.len())])
                        .collect();
                    (cells, rng.below(600) as f64)
                })
                .collect();
            let lanes: Vec<BatchLane> = strikes
                .iter()
                .map(|(cells, t)| BatchLane {
                    struck: cells,
                    strike_time_ps: *t,
                })
                .collect();
            ts.strike_compiled_with(&n, program, &groups, &lanes, &mut scratch, &mut out);
            for (l, (cells, t)) in strikes.iter().enumerate() {
                ts.strike_with(
                    &n,
                    &cycles[cycle_of[l]],
                    cells,
                    *t,
                    &mut sscratch,
                    &mut sout,
                );
                let ctx = format!("sweep {sweep} lane {l}");
                assert_eq!(out.latched_dffs(&n, l), &sout.latched_dffs[..], "{ctx}");
                assert_eq!(out.upset_dffs(&n, l), as_set(&sout.upset_dffs), "{ctx}");
                assert_eq!(out.pulses_propagated(l), sout.pulses_propagated, "{ctx}");
            }
        }
    }

    /// A single-lane compiled sweep is exactly the scalar kernel.
    #[test]
    fn single_lane_compiled_is_scalar() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let g = n.add_gate(CellKind::Not, &[a]);
        let q = n.add_dff("q", g);
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[false], &[false]);
        let cfg = TransientConfig {
            clock_period_ps: 1_000.0,
            setup_ps: 1_000.0,
            hold_ps: 1_000.0,
            initial_duration_ps: 500.0,
            attenuation_ps: 0.0,
            min_duration_ps: 1.0,
        };
        let ts = TransientSim::new(&n, cfg).unwrap();
        let mut scratch = CompiledTransientScratch::default();
        let mut out = CompiledStrikeOutcome::default();
        let one: WideMask = [1, 0, 0, 0];
        ts.strike_compiled_with(
            &n,
            n.program().unwrap(),
            &[CycleGroup {
                lanes: one,
                cycle: 0,
                values: &cv,
            }],
            &[BatchLane {
                struck: &[g],
                strike_time_ps: 0.0,
            }],
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.latched_dffs(&n, 0), &[q]);
        assert!(out.upset_dffs(&n, 0).is_empty());
        assert_eq!(out.pulses_propagated(0), 1);
    }
}
