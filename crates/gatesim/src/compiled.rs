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

/// Per-lane results of one compiled strike sweep.
///
/// Indexable by lane; lanes beyond the batch size report empty results.
/// Warm outcomes allocate nothing (per-lane vectors are retained).
#[derive(Debug, Clone)]
pub struct CompiledStrikeOutcome {
    latched: Vec<Vec<GateId>>,
    upset: Vec<Vec<GateId>>,
    pulses: Vec<usize>,
    gates_visited: usize,
}

impl Default for CompiledStrikeOutcome {
    fn default() -> Self {
        Self {
            latched: (0..WIDE_LANES).map(|_| Vec::new()).collect(),
            upset: (0..WIDE_LANES).map(|_| Vec::new()).collect(),
            pulses: vec![0; WIDE_LANES],
            gates_visited: 0,
        }
    }
}

impl CompiledStrikeOutcome {
    /// DFFs whose next-state bit lane `l`'s transient flipped (sorted).
    pub fn latched_dffs(&self, lane: usize) -> &[GateId] {
        &self.latched[lane]
    }

    /// DFFs lane `l` struck directly (SEU).
    pub fn upset_dffs(&self, lane: usize) -> &[GateId] {
        &self.upset[lane]
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
    pub fn faulty_registers_into(&self, lane: usize, out: &mut Vec<GateId>) {
        out.clear();
        out.extend_from_slice(&self.latched[lane]);
        out.extend_from_slice(&self.upset[lane]);
        out.sort_unstable();
        out.dedup();
    }

    fn clear(&mut self, lanes: usize) {
        for l in 0..lanes.max(1) {
            self.latched[l].clear();
            self.upset[l].clear();
        }
        self.pulses.iter_mut().for_each(|p| *p = 0);
        self.gates_visited = 0;
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
    /// Per net: cached packed nominal words, valid iff `nom_epoch`
    /// matches `epoch` (assembled from the value groups once per sweep).
    nom: Vec<WideMask>,
    nom_epoch: Vec<u64>,
    epoch: u64,
}

impl CompiledTransientScratch {
    #[inline]
    fn nominal(&mut self, f: usize, te_groups: &[(WideMask, &CycleValues)]) -> WideMask {
        if self.nom_epoch[f] == self.epoch {
            return self.nom[f];
        }
        let mut w = [0u64; LANE_WORDS];
        for (mask, cv) in te_groups {
            if cv.value(GateId(f as u32)) {
                for k in 0..LANE_WORDS {
                    w[k] |= mask[k];
                }
            }
        }
        self.nom[f] = w;
        self.nom_epoch[f] = self.epoch;
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
    /// `netlist.program()`); `te_groups` supplies the stable cycle values
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
        te_groups: &[(WideMask, &CycleValues)],
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
        outcome.clear(lanes.len());

        let nets = program.nets();
        let ops = program.len();
        let dirty_words = ops.div_ceil(64);
        if scratch.pulse.len() < nets {
            scratch.pulse.resize(nets, [0; LANE_WORDS]);
            scratch.seed.resize(nets, [0; LANE_WORDS]);
            scratch.base.resize(nets, [0; LANE_WORDS]);
            scratch.nom.resize(nets, [0; LANE_WORDS]);
            scratch.nom_epoch.resize(nets, 0);
        }
        if scratch.dirty.len() < dirty_words {
            scratch.dirty.resize(dirty_words, 0);
        }
        scratch.lane_time.resize(WIDE_LANES, 0.0);
        scratch.pool_start.clear();
        scratch.pool_dur.clear();
        scratch.epoch += 1;
        debug_assert!(scratch.touched.is_empty());
        debug_assert!(scratch.dirty.iter().all(|&w| w == 0));
        debug_assert!(
            {
                let covered = te_groups.iter().fold([0u64; LANE_WORDS], |mut m, (g, _)| {
                    for k in 0..LANE_WORDS {
                        m[k] |= g[k];
                    }
                    m
                });
                lanes.iter().enumerate().all(|(l, lane)| {
                    lane.struck.is_empty() || covered[l / 64] & (1u64 << (l % 64)) != 0
                })
            },
            "a striking lane has no cycle-value group"
        );

        // Seed every lane's struck cells (same rules as the scalar kernel:
        // DFFs upset, source/marker cells inert, combinational cells pulse).
        let cfg = *self.config();
        for (l, lane) in lanes.iter().enumerate() {
            let (word, bit) = (l / 64, 1u64 << (l % 64));
            scratch.lane_time[l] = lane.strike_time_ps;
            for &g in lane.struck {
                match program.net_class(g.index()) {
                    NetClass::Dff => outcome.upset[l].push(g),
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
            let mut flips = eval_flips(program.opcode(op), fis, te_groups, scratch);
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
        for &(dff, d) in program.dff_d() {
            let d = d as usize;
            for k in 0..LANE_WORDS {
                let mut pl = scratch.pulse[d][k];
                while pl != 0 {
                    let l = k * 64 + pl.trailing_zeros() as usize;
                    pl &= pl - 1;
                    let (pulse_lo, dur) = scratch.timing(d, l, cfg.initial_duration_ps);
                    let pulse_hi = pulse_lo + dur;
                    if pulse_lo <= window_hi && pulse_hi >= window_lo {
                        outcome.latched[l].push(dff);
                    }
                }
            }
        }
        for v in outcome.latched.iter_mut().take(lanes.len()) {
            v.sort_unstable();
        }

        for &g in &scratch.touched {
            scratch.pulse[g as usize] = [0; LANE_WORDS];
            scratch.seed[g as usize] = [0; LANE_WORDS];
        }
        scratch.touched.clear();
    }
}

/// `(nominal_out ^ flipped_out)` for one op over all 256 lanes, folding
/// the fanins in pin order with the identities of
/// [`CellKind::eval_words`].
#[inline]
fn eval_flips(
    op: Opcode,
    fis: &[u32],
    te_groups: &[(WideMask, &CycleValues)],
    scratch: &mut CompiledTransientScratch,
) -> WideMask {
    #[inline]
    fn operand(
        scratch: &mut CompiledTransientScratch,
        f: u32,
        te_groups: &[(WideMask, &CycleValues)],
    ) -> (WideMask, WideMask) {
        let fi = f as usize;
        let nom = scratch.nominal(fi, te_groups);
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
        // computations.
        Opcode::Buf | Opcode::Not => {
            let (nom, flip) = operand(scratch, fis[0], te_groups);
            for k in 0..LANE_WORDS {
                out[k] = nom[k] ^ flip[k];
            }
        }
        Opcode::And | Opcode::Nand => {
            let mut nacc = [!0u64; LANE_WORDS];
            let mut facc = [!0u64; LANE_WORDS];
            for &f in fis {
                let (nom, flip) = operand(scratch, f, te_groups);
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
                let (nom, flip) = operand(scratch, f, te_groups);
                for k in 0..LANE_WORDS {
                    nacc[k] |= nom[k];
                    facc[k] |= flip[k];
                }
            }
            for k in 0..LANE_WORDS {
                out[k] = nacc[k] ^ facc[k];
            }
        }
        Opcode::Xor | Opcode::Xnor => {
            // nominal ^ flipped of a parity tree is the parity of the
            // per-fanin flips, i.e. the XOR of the pulse masks.
            for &f in fis {
                let p = &scratch.pulse[f as usize];
                for k in 0..LANE_WORDS {
                    out[k] ^= p[k];
                }
            }
        }
        Opcode::Mux => {
            let (sn, sf) = operand(scratch, fis[0], te_groups);
            let (an, af) = operand(scratch, fis[1], te_groups);
            let (bn, bf) = operand(scratch, fis[2], te_groups);
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
                &[(mask_a, &cv_a), (mask_b, &cv_b)],
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
                    cout.latched_dffs(l),
                    &sout.latched_dffs[..],
                    "seed {seed} lane {l} latched"
                );
                assert_eq!(
                    cout.upset_dffs(l),
                    &sout.upset_dffs[..],
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
                cout.faulty_registers_into(l, &mut got);
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
                &[(wide_mask, &cv)],
                &lanes,
                &mut cscratch,
                &mut cout,
            );

            for l in 0..64 {
                assert_eq!(
                    cout.latched_dffs(l),
                    bout.latched_dffs(l),
                    "seed {seed} lane {l}"
                );
                assert_eq!(
                    cout.upset_dffs(l),
                    bout.upset_dffs(l),
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
            ts.strike_compiled_with(&n, program, &[(all, &cv)], &lanes, &mut scratch, &mut out);
            for (l, cells) in strikes.iter().enumerate() {
                let fresh = ts.strike(&n, &cv, cells, 500.0);
                assert_eq!(
                    out.latched_dffs(l),
                    &fresh.latched_dffs[..],
                    "round {round}"
                );
                assert_eq!(out.upset_dffs(l), &fresh.upset_dffs[..], "round {round}");
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
            &[(all, &cv)],
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
                out.latched_dffs(l),
                &sout.latched_dffs[..],
                "lane {l} latched"
            );
            assert_eq!(out.upset_dffs(l), &sout.upset_dffs[..], "lane {l} upset");
            assert_eq!(
                out.pulses_propagated(l),
                sout.pulses_propagated,
                "lane {l} pulse count"
            );
            latched_q2 += usize::from(out.latched_dffs(l).contains(&q2));
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
                &[(all, &cv)],
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
            &[(one, &cv)],
            &[BatchLane {
                struck: &[g],
                strike_time_ps: 0.0,
            }],
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.latched_dffs(0), &[q]);
        assert!(out.upset_dffs(0).is_empty());
        assert_eq!(out.pulses_propagated(0), 1);
    }
}
