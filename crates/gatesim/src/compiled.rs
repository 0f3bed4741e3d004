//! Compiled-program transient kernel: 256 strikes per straight-line sweep.
//!
//! The campaign's Monte Carlo runs are independent trials over the *same*
//! netlist, so their transient propagation packs into bit lanes exactly
//! like the pre-characterization's bit-parallel logic evaluation
//! ([`crate::bitparallel`]): lane `l` of every packed word belongs to run
//! `l` of the sweep. Where the scalar kernel
//! ([`TransientSim::strike_with`]) interprets the netlist one strike at a
//! time, gate by gate through a rank-ordered worklist (`BinaryHeap`,
//! `Gate` pointer chases, `CellKind` dispatch), this kernel evaluates the
//! netlist's pre-compiled [`GateProgram`]: a structure-of-arrays
//! straight-line program in topological order, with [`WIDE_LANES`] = 256
//! lanes (`[u64; 4]` per net). The worklist becomes a dirty-op bitmask
//! scanned in program order — set-bit iteration over a few words instead
//! of heap pushes and pops, while still visiting only the union fanout
//! cone of the struck cells.
//!
//! # Logical first, timing only where it matters
//!
//! A sweep is a bit-parallel *logical* pass followed by an exact per-lane
//! *replay*. The logical pass propagates pulse masks for all lanes with
//! no float work, as if no pulse ever faded, and logs each visited op's
//! new-pulse mask. Only a pulse at a DFF D pin can latch, and a pulse's
//! duration is bounded by its hop count (`d_{k+1} = d_k − attenuation_ps`,
//! the fold's own steps), so a lane needs timing only when it pulses at a
//! D pin or reaches an op more than [`max_hops`] levels above its
//! shallowest seed. Those *timed* lanes replay the log with the scalar
//! kernel's fold. A pulse that fades there is dropped together with the
//! logged pulses that hung on it alone; if a dropped pulse shared an op
//! with a live one, the logical verdict there may no longer hold and the
//! lane goes to the scalar kernel. Every other lane's logical result is
//! already exact.
//!
//! # Equivalence contract
//!
//! Lane `l` of a compiled sweep is **bit-identical** to
//! [`TransientSim::strike_with`] with that lane's strike list, stable
//! values and strike time:
//!
//! * the program order is a topological refinement of the scalar
//!   worklist's rank induction (an op runs only after every producer's
//!   pulses are final), and a visited op is a no-op in lanes the scalar
//!   kernel would not have reached,
//! * seeding follows the same cell rules, with the same initial pulse,
//! * logical masking is the identical predicate: packed nominal fanin
//!   words are XOR-flipped by each fanin's pulsing-lane mask, so bit `l`
//!   of `eval(flipped) ^ eval(nominal)` equals the scalar
//!   `flipped != nominal` test of lane `l`,
//! * the replay's electrical max-fold runs over the fanins in pin order
//!   with the identical `fold(0.0, f64::max)` seed and the same *iterated*
//!   attenuation subtraction (never an algebraically equal closed form).
//!
//! Up to a lane's first fade the logical pass and the scalar kernel agree
//! net for net, so the replay sees that fade; past it, a net loses its
//! pulse exactly when it faded or all its pulsing fanins did, as long as
//! no op (logged or not) sees a lost fanin next to a pulsing one, which the
//! replay checks. Only the batch-shape counters (`gates_visited`,
//! `timed_lanes`, `resimulated_lanes`) depend on the kernel. Registers come
//! out as sets (bit masks over DFF indices), so a lane's direct upsets
//! match the scalar list as a set, not as a sequence.

use xlmc_netlist::{Footprint, GateProgram, Netlist, Opcode};

use crate::cycle::CycleValues;
use crate::transient::{StrikeOutcome, TransientConfig, TransientScratch, TransientSim};
use xlmc_netlist::GateId;

/// One lane's strike: the classified cells it hits and the particle-hit
/// moment.
#[derive(Debug, Clone, Copy)]
pub struct BatchLane<'a> {
    /// The footprint of the lane's radiation spot.
    pub primary: Footprint<'a>,
    /// The second spot's footprint in the double-glitch mode. It may
    /// overlap the primary one; a net both strike pulses once.
    pub secondary: Option<Footprint<'a>>,
    /// The particle-hit moment within the cycle, ps after the launching
    /// clock edge.
    pub strike_time_ps: f64,
}

impl BatchLane<'_> {
    /// The lane's one or two footprints.
    fn footprints(&self) -> impl Iterator<Item = &Footprint<'_>> {
        std::iter::once(&self.primary).chain(&self.secondary)
    }
}

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
    /// The per-net words of the cycle's block: net `f`'s stable value is
    /// bit [`CycleGroup::bit`] of `words[f]` (see
    /// [`crate::bitparallel::CycleWindow`]).
    pub words: &'a [u64],
    /// The cycle's bit in `words`.
    pub bit: u32,
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
    /// Per lane: the combinational nets its strike seeded, or, for a
    /// `settled` lane, its whole pulse count.
    lane_pulses: Vec<usize>,
    /// Lanes some of whose logged pulses are gone in the exact run: their
    /// pulse count is in `lane_pulses`, not in the log.
    settled: WideMask,
    /// Lanes whose pulse timing was replayed.
    timed: WideMask,
    /// Each op that made a new pulse, in program order.
    log_ops: Vec<u32>,
    /// Per lane word: the new-pulse lanes of each `log_ops` entry.
    log_lanes: [Vec<u64>; LANE_WORDS],
    pulses: usize,
    gates_visited: usize,
    timed_lanes: usize,
    resimulated_lanes: usize,
}

impl Default for CompiledStrikeOutcome {
    fn default() -> Self {
        Self {
            latched: Vec::new(),
            upset: Vec::new(),
            dff_words: 0,
            lane_pulses: vec![0; WIDE_LANES],
            settled: [0; LANE_WORDS],
            timed: [0; LANE_WORDS],
            log_ops: Vec::new(),
            log_lanes: Default::default(),
            pulses: 0,
            gates_visited: 0,
            timed_lanes: 0,
            resimulated_lanes: 0,
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

    /// Number of gates that carried a propagating pulse in lane `l`,
    /// counted from the op log (a scan per call: campaign totals come from
    /// [`CompiledStrikeOutcome::pulses_total`]).
    pub fn pulses_propagated(&self, lane: usize) -> usize {
        let (k, bit) = (lane / 64, 1u64 << (lane % 64));
        if self.settled[k] & bit != 0 {
            return self.lane_pulses[lane];
        }
        self.lane_pulses[lane] + self.log_lanes[k].iter().filter(|&&w| w & bit != 0).count()
    }

    /// [`CompiledStrikeOutcome::pulses_propagated`] of the sweep's first
    /// `out.len()` lanes into `out`, in one pass over the op log.
    pub fn pulses_per_lane(&self, out: &mut [usize]) {
        out.copy_from_slice(&self.lane_pulses[..out.len()]);
        for (k, column) in self.log_lanes.iter().enumerate() {
            let lanes = out.len().saturating_sub(k * 64).min(64);
            if lanes == 0 {
                break;
            }
            let counted = !self.settled[k] & (u64::MAX >> (64 - lanes));
            for &new in column {
                let mut w = new & counted;
                while w != 0 {
                    out[k * 64 + w.trailing_zeros() as usize] += 1;
                    w &= w - 1;
                }
            }
        }
    }

    /// [`CompiledStrikeOutcome::pulses_propagated`] summed over the
    /// sweep's lanes.
    pub fn pulses_total(&self) -> usize {
        self.pulses
    }

    /// Whether lane `l`'s pulse timing was replayed: it pulsed at a D pin
    /// or travelled more than [`max_hops`] levels from its shallowest
    /// seed. The logical pass decides this from the stable values and the
    /// footprints alone, never from the strike moment, and an untimed lane
    /// latches nothing: its registers in error are its footprints' upset
    /// DFFs and its pulse count is the logical one, at every strike
    /// moment.
    pub fn timed(&self, lane: usize) -> bool {
        self.timed[lane / 64] & (1u64 << (lane % 64)) != 0
    }

    /// Ops popped from the logical pass's dirty-op scan for the whole
    /// sweep (an op serving many lanes is visited once). Kernel-shape:
    /// comparable to the worklist pop count, not to the scalar kernel's
    /// per-run visits.
    pub fn gates_visited(&self) -> usize {
        self.gates_visited
    }

    /// Lanes whose pulse timing was replayed: they pulsed at a D pin or
    /// travelled far enough that a pulse might have faded.
    pub fn timed_lanes(&self) -> usize {
        self.timed_lanes
    }

    /// Timed lanes the scalar kernel re-simulated: a pulse of theirs faded
    /// next to a live one at some op, where the logical verdict may not
    /// hold.
    pub fn resimulated_lanes(&self) -> usize {
        self.resimulated_lanes
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
        self.lane_pulses.iter_mut().for_each(|p| *p = 0);
        self.settled = [0; LANE_WORDS];
        self.timed = [0; LANE_WORDS];
        self.log_ops.clear();
        self.log_lanes.iter_mut().for_each(Vec::clear);
        self.pulses = 0;
        self.gates_visited = 0;
        self.timed_lanes = 0;
        self.resimulated_lanes = 0;
    }

    /// Replace lane `l`'s pulse count, `logical` so far, by `exact`.
    fn settle(&mut self, l: usize, logical: usize, exact: usize) {
        self.pulses = self.pulses - logical + exact;
        self.lane_pulses[l] = exact;
        self.settled[l / 64] |= 1u64 << (l % 64);
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

/// The most ops any pulse can traverse without a chance of fading, or
/// `None` when the model's durations do not strictly shrink per op.
///
/// A seeded pulse lasts `d_0 = initial_duration_ps` and each op subtracts
/// `attenuation_ps` from the longest fanin pulse, so with `d_{k+1} = d_k −
/// attenuation_ps` (the fold's own `f64` steps) a pulse `k` ops from its
/// nearest seed lasts at least `d_k`. This is the largest `h ≤ levels`
/// with `d_k ≥ min_duration_ps` for every `1 ≤ k ≤ h`. A zero, negative or
/// NaN attenuation (or an infinite duration) breaks that bound, and the
/// caller then times every lane.
fn max_hops(cfg: &TransientConfig, levels: usize) -> Option<usize> {
    let mut d = cfg.initial_duration_ps;
    for k in 0..levels {
        let next = d - cfg.attenuation_ps;
        if next.partial_cmp(&d) != Some(std::cmp::Ordering::Less) {
            return None;
        }
        if next < cfg.min_duration_ps {
            return Some(k);
        }
        d = next;
    }
    Some(levels)
}

/// Reusable buffers for [`TransientSim::strike_compiled_with`].
///
/// One scratch per worker. Pulse masks reset through the `touched` list
/// (O(cone)); the dirty-op bitmask is consumed back to zero by the sweep
/// itself. No state is kept per (net, lane): the replay reuses one timing
/// slot per net for each timed lane in turn, and the op log lives in the
/// outcome.
///
/// Nominal values are packed per cycle *slot*: the first sweep that names
/// a [`CycleGroup::cycle`] gives it the next slot and copies its bit of
/// each net's word into that slot, 64 slots per word. A net's nominal word in a
/// sweep is then the OR of the lane masks of its set, active slots. A
/// scratch is therefore valid against one set of cycle values per id:
/// keep one per worker and campaign.
#[derive(Debug, Default)]
pub struct CompiledTransientScratch {
    /// Per net: 256-lane mask of pulses at this net.
    pulse: Vec<WideMask>,
    /// Nets whose pulse mask is nonzero (for O(cone) reset).
    touched: Vec<u32>,
    /// One bit per op: pending evaluation. Consumed in program order.
    dirty: Vec<u64>,
    /// Per logic level: the lanes an op of that level must time, because
    /// it lies more than [`max_hops`] levels above the lane's shallowest
    /// seed.
    reach: Vec<WideMask>,
    /// `(DFF index, D net)` of every D pin that pulses in some lane.
    hits: Vec<(u32, u32)>,
    /// Per net: `(start, duration)` of the replayed lane's pulse.
    timing: Vec<(f64, f64)>,
    /// Per net: the replayed lane's logged pulse here is gone in the exact
    /// run (it faded, or every pulsing fanin's did). Each replay resets it
    /// through `dead_nets`.
    dead: Vec<bool>,
    dead_nets: Vec<u32>,
    /// Scalar-kernel buffers for lanes that meet a fading pulse.
    exact: TransientScratch,
    exact_out: StrikeOutcome,
    exact_values: CycleValues,
    exact_struck: Vec<GateId>,
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
            for (w, &word) in block.iter_mut().zip(group.words) {
                *w |= (word >> group.bit & 1) << (s % 64);
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
        let faded = self.sweep(netlist, program, groups, lanes, scratch, outcome);

        // Lanes whose replay could not settle a fade: run each through the
        // scalar kernel. Upsets were already marked at seeding; the latched
        // set and the pulse count become the exact ones. Those depend only
        // on the set of combinational cells struck (not on their order,
        // repeats, struck registers or inert cells), so the lane's
        // footprints' combinational nets go in one after the other.
        for_each_lane(faded, |l| {
            let (k, bit) = (l / 64, 1u64 << (l % 64));
            let group = groups
                .iter()
                .find(|g| g.lanes[k] & bit != 0)
                .expect("a striking lane has a cycle-value group");
            scratch
                .exact_values
                .unpack_into(netlist, group.words, group.bit);
            let lane = &lanes[l];
            scratch.exact_struck.clear();
            for fp in lane.footprints() {
                scratch
                    .exact_struck
                    .extend(fp.comb_nets().iter().map(|&g| GateId(g)));
            }
            let logical = outcome.pulses_propagated(l);
            self.strike_with(
                netlist,
                &scratch.exact_values,
                &scratch.exact_struck,
                lane.strike_time_ps,
                &mut scratch.exact,
                &mut scratch.exact_out,
            );
            for &dff in &scratch.exact_out.latched_dffs {
                let i = program
                    .dff_index(dff.index())
                    .expect("latched nets are DFFs");
                CompiledStrikeOutcome::mark(&mut outcome.latched, outcome.dff_words, l, i);
            }
            outcome.settle(l, logical, scratch.exact_out.pulses_propagated);
            outcome.resimulated_lanes += 1;
        });
    }

    /// One sweep: seed, run the logical pass, then replay the lanes that
    /// need timing and apply the latching window. Returns the timed lanes
    /// whose replay could not settle a fade; their results are not final.
    fn sweep(
        &self,
        netlist: &Netlist,
        program: &GateProgram,
        groups: &[CycleGroup<'_>],
        lanes: &[BatchLane<'_>],
        scratch: &mut CompiledTransientScratch,
        outcome: &mut CompiledStrikeOutcome,
    ) -> WideMask {
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
            scratch.timing.resize(nets, (0.0, 0.0));
            scratch.dead.resize(nets, false);
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
                    lane.footprints()
                        .all(|fp| fp.comb_nets().is_empty() && fp.dffs().is_empty())
                        || covered[l / 64] & (1u64 << (l % 64)) != 0
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

        // Seed every lane's footprints and mark, from the lane's shallowest
        // seed, the level where its pulses may start to fade.
        let cfg = *self.config();
        let levels = program.levels();
        let hops = max_hops(&cfg, levels);
        scratch.reach.clear();
        scratch.reach.resize(levels + 1, [0; LANE_WORDS]);
        for (l, lane) in lanes.iter().enumerate() {
            let shallowest = seed_lane(lane, l, &mut scratch.pulse, &mut scratch.touched, outcome);
            if shallowest != u32::MAX {
                let from = hops.map_or(0, |h| shallowest as usize + h + 1);
                if from <= levels {
                    scratch.reach[from][l / 64] |= 1u64 << (l % 64);
                }
            }
            outcome.pulses += outcome.lane_pulses[l];
        }
        for level in 1..scratch.reach.len() {
            let below = scratch.reach[level - 1];
            for (w, b) in scratch.reach[level].iter_mut().zip(below) {
                *w |= b;
            }
        }

        // Logical pass: mark the consumers of every seeded net, then sweep
        // the dirty ops in program order. Consumers always sit at higher op
        // indices than their producers (topological order), so a pulse
        // created mid-sweep only ever marks ops the scan has not yet
        // consumed, and each op runs at most once.
        let mut timed = [0u64; LANE_WORDS];
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
            let mut new = eval_flips(program.opcode(op), fis, scratch);
            let mut have = 0u64;
            for k in 0..LANE_WORDS {
                new[k] &= candidates[k];
                have |= new[k];
            }
            if have == 0 {
                continue;
            }

            // A pulse is at most as many ops from its nearest seed as their
            // levels differ, so it may have faded only at an op more than
            // `max_hops` levels above its lane's shallowest seed.
            let risky = &scratch.reach[program.level(out) as usize];
            for k in 0..LANE_WORDS {
                timed[k] |= new[k] & risky[k];
                outcome.pulses += new[k].count_ones() as usize;
            }
            outcome.log_ops.push(op as u32);
            for (column, &nl) in outcome.log_lanes.iter_mut().zip(&new) {
                column.push(nl);
            }
            if is_zero(&existing) {
                scratch.touched.push(out as u32);
            }
            for (k, &nl) in new.iter().enumerate() {
                scratch.pulse[out][k] |= nl;
            }
            for &c in program.consumers(out) {
                scratch.dirty[(c / 64) as usize] |= 1u64 << (c % 64);
            }
        }

        // Every lane that pulses at a D pin needs its timing for the
        // latching window.
        scratch.hits.clear();
        for (i, &(_, d)) in program.dff_d().iter().enumerate() {
            let p = scratch.pulse[d as usize];
            if !is_zero(&p) {
                scratch.hits.push((i as u32, d));
                for k in 0..LANE_WORDS {
                    timed[k] |= p[k];
                }
            }
        }
        for word in timed {
            outcome.timed_lanes += word.count_ones() as usize;
        }
        outcome.timed = timed;

        // Replay each timed lane exactly, then apply latching-window
        // masking at its pulsing D pins.
        let window_lo = cfg.clock_period_ps - cfg.setup_ps;
        let window_hi = cfg.clock_period_ps + cfg.hold_ps;
        let mut faded = [0u64; LANE_WORDS];
        for_each_lane(timed, |l| {
            let (k, bit) = (l / 64, 1u64 << (l % 64));
            let Some(lost) = replay(program, &cfg, &lanes[l], l, outcome, scratch) else {
                faded[k] |= bit;
                return;
            };
            if lost > 0 {
                let logical = outcome.pulses_propagated(l);
                outcome.settle(l, logical, logical - lost);
            }
            for &(i, d) in &scratch.hits {
                let d = d as usize;
                if scratch.pulse[d][k] & bit != 0 && !scratch.dead[d] {
                    let (pulse_lo, dur) = scratch.timing[d];
                    let pulse_hi = pulse_lo + dur;
                    if pulse_lo <= window_hi && pulse_hi >= window_lo {
                        CompiledStrikeOutcome::mark(&mut outcome.latched, dff_words, l, i as usize);
                    }
                }
            }
        });

        for &g in &scratch.touched {
            scratch.pulse[g as usize] = [0; LANE_WORDS];
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
        faded
    }
}

/// Seed lane `l` from its footprints, by the scalar kernel's cell rules
/// as the footprints classified them: upset its registers and pulse its
/// combinational nets, counting each net once in `lane_pulses` even where
/// two footprints overlap. Returns the shallowest seeded level,
/// `u32::MAX` when nothing pulses.
fn seed_lane(
    lane: &BatchLane<'_>,
    l: usize,
    pulse: &mut [WideMask],
    touched: &mut Vec<u32>,
    outcome: &mut CompiledStrikeOutcome,
) -> u32 {
    let (word, bit) = (l / 64, 1u64 << (l % 64));
    let mut shallowest = u32::MAX;
    for fp in lane.footprints() {
        for &i in fp.dffs() {
            CompiledStrikeOutcome::mark(&mut outcome.upset, outcome.dff_words, l, i as usize);
        }
        for &g in fp.comb_nets() {
            let pl = &mut pulse[g as usize];
            if is_zero(pl) {
                touched.push(g);
            }
            if pl[word] & bit == 0 {
                outcome.lane_pulses[l] += 1;
            }
            pl[word] |= bit;
        }
        shallowest = shallowest.min(fp.shallowest());
    }
    shallowest
}

/// Call `f` on every lane of `mask`, ascending.
#[inline]
fn for_each_lane(mask: WideMask, mut f: impl FnMut(usize)) {
    for (k, mut word) in mask.into_iter().enumerate() {
        while word != 0 {
            f(k * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// Replay lane `l`'s pulses through the logged ops in program order with
/// the scalar kernel's fold (fanins in pin order, `fold(0.0, f64::max)`),
/// leaving each pulsing net's `(start, duration)` in `scratch.timing`.
///
/// A pulse that fades is marked dead, and so is a logged pulse whose
/// pulsing fanins are all dead: in the exact run neither net pulses, and
/// the logical pass's verdict for every other net still holds as long as
/// no op mixes dead and live pulsing fanins. Returns the number of dead
/// pulses, or `None` at the first op where that fails (the flip may then
/// differ, so the lane needs the scalar kernel).
fn replay(
    program: &GateProgram,
    cfg: &TransientConfig,
    lane: &BatchLane<'_>,
    l: usize,
    outcome: &CompiledStrikeOutcome,
    scratch: &mut CompiledTransientScratch,
) -> Option<usize> {
    for &n in &scratch.dead_nets {
        scratch.dead[n as usize] = false;
    }
    scratch.dead_nets.clear();
    for fp in lane.footprints() {
        for &g in fp.comb_nets() {
            scratch.timing[g as usize] = (lane.strike_time_ps, cfg.initial_duration_ps);
        }
    }
    let (k, bit) = (l / 64, 1u64 << (l % 64));
    let pulses = |scratch: &CompiledTransientScratch, f: usize| scratch.pulse[f][k] & bit != 0;
    for (&new, &op) in outcome.log_lanes[k].iter().zip(&outcome.log_ops) {
        if new & bit == 0 {
            continue;
        }
        let op = op as usize;
        let (mut live, mut lost) = (false, false);
        let mut max_duration = 0.0f64;
        let mut max_start = 0.0f64;
        for &f in program.fanins(op) {
            let fi = f as usize;
            if !pulses(scratch, fi) {
                continue;
            }
            if scratch.dead[fi] {
                lost = true;
                continue;
            }
            live = true;
            let (start, dur) = scratch.timing[fi];
            max_duration = max_duration.max(dur);
            max_start = max_start.max(start);
        }
        if live && lost {
            return None;
        }
        let out = program.out(op);
        let duration = max_duration - cfg.attenuation_ps;
        let gone = !live || duration < cfg.min_duration_ps;
        if !gone {
            scratch.timing[out] = (max_start + program.delay_ps(op), duration);
            continue;
        }
        // `out` carries no pulse in the exact run. A consumer the logical
        // pass left without a pulse keeps none unless another fanin
        // pulses there too (then losing this one may unmask it).
        for &c in program.consumers(out) {
            let c = c as usize;
            if !pulses(scratch, program.out(c))
                && program
                    .fanins(c)
                    .iter()
                    .any(|&f| f as usize != out && pulses(scratch, f as usize))
            {
                return None;
            }
        }
        scratch.dead[out] = true;
        scratch.dead_nets.push(out as u32);
    }
    Some(scratch.dead_nets.len())
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
    use crate::bitparallel::CycleWindow;
    use crate::cycle::CycleSim;
    use crate::transient::{StrikeOutcome, TransientConfig, TransientScratch};
    use xlmc_netlist::{CellKind, GateId, NetClass, Netlist};

    /// One strike's cells classified, owned: what a `LaneStrikes`
    /// footprint caches.
    struct Seeds(Vec<u32>);

    impl Seeds {
        fn of(program: &GateProgram, cells: &[GateId]) -> Self {
            let mut words = Vec::new();
            program.classify_into(cells, &mut words);
            Seeds(words)
        }

        fn footprint(&self) -> Footprint<'_> {
            Footprint::new(&self.0)
        }
    }

    /// The seeds of each strike's cells.
    fn seeds_of<'c>(
        program: &GateProgram,
        strikes: impl IntoIterator<Item = &'c [GateId]>,
    ) -> Vec<Seeds> {
        strikes.into_iter().map(|c| Seeds::of(program, c)).collect()
    }

    /// Single-spot lanes: lane `l` strikes `seeds[l]` at `times[l]`.
    fn lanes_of(seeds: &[Seeds], times: impl IntoIterator<Item = f64>) -> Vec<BatchLane<'_>> {
        seeds
            .iter()
            .zip(times)
            .map(|(s, strike_time_ps)| BatchLane {
                primary: s.footprint(),
                secondary: None,
                strike_time_ps,
            })
            .collect()
    }

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
            let seeds = seeds_of(program, strikes.iter().map(|(c, _)| &c[..]));
            let lanes = lanes_of(&seeds, strikes.iter().map(|&(_, t)| t));
            let window = CycleWindow::from_cycles(&n, vec![cv_a.clone(), cv_b.clone()]);

            let mut cscratch = CompiledTransientScratch::default();
            let mut cout = CompiledStrikeOutcome::default();
            ts.strike_compiled_with(
                &n,
                program,
                &[window.group(0, mask_a), window.group(1, mask_b)],
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

    /// One full lane word of a single-cycle sweep (64 lanes of 0–3 struck
    /// cells, all at 450 ps, the other three words empty) agrees with the
    /// scalar kernel lane for lane on three random netlists.
    #[test]
    fn compiled_one_word_sweep_matches_scalar_strikes() {
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
            let seeds = seeds_of(program, strikes.iter().map(|c| &c[..]));
            let lanes = lanes_of(&seeds, std::iter::repeat(450.0));
            let window = CycleWindow::from_cycles(&n, vec![cv.clone()]);

            let mut cscratch = CompiledTransientScratch::default();
            let mut cout = CompiledStrikeOutcome::default();
            let wide_mask: WideMask = [!0u64, 0, 0, 0];
            ts.strike_compiled_with(
                &n,
                program,
                &[window.group(0, wide_mask)],
                &lanes,
                &mut cscratch,
                &mut cout,
            );

            let mut sscratch = TransientScratch::default();
            let mut sout = StrikeOutcome::default();
            for (l, cells) in strikes.iter().enumerate() {
                ts.strike_with(&n, &cv, cells, 450.0, &mut sscratch, &mut sout);
                assert_eq!(
                    cout.latched_dffs(&n, l),
                    &sout.latched_dffs[..],
                    "seed {seed} lane {l}"
                );
                assert_eq!(
                    cout.upset_dffs(&n, l),
                    as_set(&sout.upset_dffs),
                    "seed {seed} lane {l}"
                );
                assert_eq!(
                    cout.pulses_propagated(l),
                    sout.pulses_propagated,
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
        let window = CycleWindow::from_cycles(&n, vec![cv.clone()]);
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
            let seeds = seeds_of(program, strikes.iter().map(|c| &c[..]));
            let lanes = lanes_of(&seeds, std::iter::repeat(500.0));
            let all: WideMask = [!0u64; LANE_WORDS];
            let groups = [window.group(0, all)];
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
    /// seeded lanes, the replay of `n2`'s op for propagated ones.
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
        let seeds = seeds_of(n.program().unwrap(), strikes.iter().map(|(c, _)| &c[..]));
        let lanes = lanes_of(&seeds, strikes.iter().map(|&(_, t)| t));
        let window = CycleWindow::from_cycles(&n, vec![cv.clone()]);
        let mut scratch = CompiledTransientScratch::default();
        let mut out = CompiledStrikeOutcome::default();
        let all: WideMask = [!0u64; LANE_WORDS];
        ts.strike_compiled_with(
            &n,
            n.program().unwrap(),
            &[window.group(0, all)],
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

    /// The replay keeps one timing slot per net and the op log one entry
    /// per visited op that made a pulse: the sweep's state grows with the
    /// ops it visits, never with nets × lanes.
    #[test]
    fn replay_state_is_per_net_and_log_holds_visited_ops() {
        let n = random_netlist(0x7157, 8, 1_200);
        assert!(n.len() >= 1_000, "{} nets", n.len());
        let program = n.program().unwrap();
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
        let seeds = seeds_of(program, strikes.iter().map(|(c, _)| &c[..]));
        let lanes = lanes_of(&seeds, strikes.iter().map(|&(_, t)| t));
        let window = CycleWindow::from_cycles(&n, vec![cv.clone()]);
        let mut scratch = CompiledTransientScratch::default();
        let mut out = CompiledStrikeOutcome::default();
        let all: WideMask = [!0u64; LANE_WORDS];
        // Twice on one scratch: the second sweep must not keep the first's
        // entries.
        for sweep in 0..2 {
            ts.strike_compiled_with(
                &n,
                program,
                &[window.group(0, all)],
                &lanes,
                &mut scratch,
                &mut out,
            );
            let visited = out.gates_visited();
            let entries = out.log_ops.len();
            assert!(out.log_lanes.iter().all(|column| column.len() == entries));
            assert!(entries > 0, "the sweep must propagate past its seeds");
            assert!(
                entries <= visited,
                "sweep {sweep}: {entries} log entries for {visited} visited ops"
            );
            for cap in std::iter::once(out.log_ops.capacity())
                .chain(out.log_lanes.iter().map(Vec::capacity))
            {
                assert!(
                    cap <= 2 * visited,
                    "sweep {sweep}: log capacity {cap} for {visited} visited ops"
                );
            }
            assert!(out.timed_lanes() > 0, "sweep {sweep}: nothing was timed");
            for (what, len, cap) in [
                ("pulse", scratch.pulse.len(), scratch.pulse.capacity()),
                ("timing", scratch.timing.len(), scratch.timing.capacity()),
            ] {
                assert_eq!(len, n.len(), "sweep {sweep}: {what} is per net");
                assert!(cap <= 2 * n.len(), "sweep {sweep}: {what} capacity {cap}");
            }
            assert_eq!(scratch.reach.len(), program.levels() + 1);
            assert!(scratch.hits.len() <= n.dffs().len());
        }
    }

    /// Strike `strikes` in one sweep on `cv` and assert every lane equals
    /// the scalar kernel; returns the outcome for counter checks.
    fn assert_matches_scalar(
        n: &Netlist,
        cfg: TransientConfig,
        cv: &CycleValues,
        strikes: &[(Vec<GateId>, f64)],
    ) -> CompiledStrikeOutcome {
        let ts = TransientSim::new(n, cfg).unwrap();
        let seeds = seeds_of(n.program().unwrap(), strikes.iter().map(|(c, _)| &c[..]));
        let lanes = lanes_of(&seeds, strikes.iter().map(|&(_, t)| t));
        let window = CycleWindow::from_cycles(n, vec![cv.clone()]);
        let mut scratch = CompiledTransientScratch::default();
        let mut out = CompiledStrikeOutcome::default();
        ts.strike_compiled_with(
            n,
            n.program().unwrap(),
            &[window.group(0, [!0u64; LANE_WORDS])],
            &lanes,
            &mut scratch,
            &mut out,
        );
        let mut sscratch = TransientScratch::default();
        let mut sout = StrikeOutcome::default();
        let mut total = 0;
        for (l, (cells, t)) in strikes.iter().enumerate() {
            ts.strike_with(n, cv, cells, *t, &mut sscratch, &mut sout);
            assert_eq!(
                out.latched_dffs(n, l),
                &sout.latched_dffs[..],
                "lane {l} latched"
            );
            assert_eq!(
                out.upset_dffs(n, l),
                as_set(&sout.upset_dffs),
                "lane {l} upset"
            );
            assert_eq!(
                out.pulses_propagated(l),
                sout.pulses_propagated,
                "lane {l} pulses"
            );
            total += sout.pulses_propagated;
            if !out.timed(l) {
                assert!(sout.latched_dffs.is_empty(), "untimed lane {l} latched");
            }
        }
        assert_eq!(out.pulses_total(), total, "sweep pulse total");
        let mut per_lane = vec![usize::MAX; strikes.len()];
        out.pulses_per_lane(&mut per_lane);
        for (l, &p) in per_lane.iter().enumerate() {
            assert_eq!(p, out.pulses_propagated(l), "lane {l} pulses per lane");
        }
        out
    }

    /// An untimed lane's outcome does not depend on its strike moment: at
    /// every phase-bin center of the cycle the scalar kernel latches
    /// nothing and propagates the lane's pulse count. This is what lets a
    /// campaign strike each `(cycle, footprint)` once.
    #[test]
    fn untimed_lanes_are_phase_free() {
        let mut untimed = 0;
        for seed in 0..4u64 {
            let n = random_netlist(seed + 90, 6, 120);
            let (cv, strikes) = random_strikes(&n, seed + 7);
            for cfg in [TransientConfig::default(), tight()] {
                let out = assert_matches_scalar(&n, cfg, &cv, &strikes);
                let ts = TransientSim::new(&n, cfg).unwrap();
                let (mut sscratch, mut sout) =
                    (TransientScratch::default(), StrikeOutcome::default());
                for (l, (cells, _)) in strikes.iter().enumerate() {
                    if out.timed(l) {
                        continue;
                    }
                    untimed += 1;
                    for bin in 0..8 {
                        let t = (f64::from(bin) + 0.5) / 8.0 * cfg.clock_period_ps;
                        ts.strike_with(&n, &cv, cells, t, &mut sscratch, &mut sout);
                        assert!(
                            sout.latched_dffs.is_empty(),
                            "seed {seed} lane {l} bin {bin}"
                        );
                        assert_eq!(sout.pulses_propagated, out.pulses_propagated(l));
                    }
                }
            }
        }
        assert!(untimed > 0, "no untimed lane was exercised");
    }

    /// 256 random strikes of up to four cells on a random netlist.
    fn random_strikes(n: &Netlist, seed: u64) -> (CycleValues, Vec<(Vec<GateId>, f64)>) {
        let sim = CycleSim::new(n).unwrap();
        let mut rng = Xs(seed | 1);
        let state: Vec<bool> = (0..n.dffs().len()).map(|_| rng.next() & 1 == 1).collect();
        let inputs: Vec<bool> = (0..n.inputs().len()).map(|_| rng.next() & 1 == 1).collect();
        let cv = sim.eval(n, &state, &inputs);
        let candidates: Vec<GateId> = n.iter().map(|(id, _)| id).collect();
        let strikes = (0..WIDE_LANES)
            .map(|_| {
                let cells = (0..1 + rng.below(4))
                    .map(|_| candidates[rng.below(candidates.len())])
                    .collect();
                (cells, rng.below(700) as f64)
            })
            .collect();
        (cv, strikes)
    }

    /// `max_hops` walks the fold's own `f64` steps and refuses any config
    /// whose durations do not strictly shrink.
    #[test]
    fn max_hops_follows_the_fold_steps() {
        // 120 − 9k ≥ 15 holds up to k = 11.
        assert_eq!(max_hops(&tight(), 100), Some(11));
        assert_eq!(max_hops(&tight(), 4), Some(4));
        let fades_at_once = TransientConfig {
            initial_duration_ps: 100.0,
            attenuation_ps: 10.0,
            min_duration_ps: 95.0,
            ..tight()
        };
        assert_eq!(max_hops(&fades_at_once, 100), Some(0));
        let never_fades = TransientConfig {
            min_duration_ps: f64::NAN,
            ..tight()
        };
        assert_eq!(max_hops(&never_fades, 100), Some(100));
        for attenuation_ps in [0.0, -5.0, f64::NAN, 1e-300] {
            let cfg = TransientConfig {
                attenuation_ps,
                ..tight()
            };
            assert_eq!(max_hops(&cfg, 100), None, "attenuation {attenuation_ps}");
        }
        let endless = TransientConfig {
            initial_duration_ps: f64::INFINITY,
            ..tight()
        };
        assert_eq!(max_hops(&endless, 100), None);
    }

    /// Without attenuation durations never shrink, so every lane that
    /// propagates is timed (and none fades).
    #[test]
    fn zero_attenuation_times_every_propagating_lane() {
        let n = random_netlist(0xA77E, 6, 150);
        let (cv, strikes) = random_strikes(&n, 0x2E20);
        let cfg = TransientConfig {
            attenuation_ps: 0.0,
            ..tight()
        };
        let out = assert_matches_scalar(&n, cfg, &cv, &strikes);
        let propagating = (0..WIDE_LANES)
            .filter(|&l| out.pulses_propagated(l) > out.lane_pulses[l])
            .count();
        assert!(propagating > 0);
        assert!(out.timed_lanes() >= propagating, "{}", out.timed_lanes());
        assert_eq!(out.resimulated_lanes(), 0);
    }

    /// When the first op already kills every pulse, every lane keeps only
    /// its seeds: the replay settles a lane whose dead pulses unmask
    /// nothing, and the scalar kernel re-simulates the others.
    #[test]
    fn every_propagated_pulse_fading_matches_scalar() {
        let n = random_netlist(0xFADE, 6, 150);
        let (cv, strikes) = random_strikes(&n, 0xFAD1);
        let cfg = TransientConfig {
            initial_duration_ps: 100.0,
            attenuation_ps: 10.0,
            min_duration_ps: 95.0,
            ..tight()
        };
        let out = assert_matches_scalar(&n, cfg, &cv, &strikes);
        let settled: u32 = out.settled.iter().map(|w| w.count_ones()).sum();
        let resimulated = out.resimulated_lanes();
        assert!(
            resimulated > 0 && settled as usize > resimulated,
            "{settled} {resimulated}"
        );
        for l in 0..WIDE_LANES {
            assert_eq!(out.pulses_propagated(l), out.lane_pulses[l], "lane {l}");
        }
    }

    /// A D pin 13 levels deep: `kind(tail, short)`, where `tail` ends a
    /// 12-buffer chain from input `a` and `short` buffers input `b` (both
    /// inputs 0). With 8 safe hops, lanes `l % 3` strike `short`, the chain
    /// `head`, or both, at strike times spread over the clock period.
    /// Returns the netlist, `q` and the sweep, checked against the scalar
    /// kernel lane for lane.
    fn deep_chain_sweep(kind: CellKind) -> (Netlist, GateId, CompiledStrikeOutcome) {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let head = n.add_gate(CellKind::Buf, &[a]);
        let mut tail = head;
        for _ in 1..12 {
            tail = n.add_gate(CellKind::Buf, &[tail]);
        }
        let short = n.add_gate(CellKind::Buf, &[b]);
        let g = n.add_gate(kind, &[tail, short]);
        let q = n.add_dff("q", g);
        let program = n.program().unwrap();
        assert_eq!(program.level(g.index()), 13);
        let sim = CycleSim::new(&n).unwrap();
        let cv = sim.eval(&n, &[false], &[false, false]);
        let cfg = TransientConfig {
            initial_duration_ps: 100.0,
            attenuation_ps: 10.0,
            min_duration_ps: 15.0,
            ..tight()
        };
        assert_eq!(max_hops(&cfg, program.levels()), Some(8));
        let strikes: Vec<(Vec<GateId>, f64)> = (0..WIDE_LANES)
            .map(|l| {
                let cells = match l % 3 {
                    0 => vec![short],
                    1 => vec![head],
                    _ => vec![head, short],
                };
                (cells, ((l * 37) % 700) as f64)
            })
            .collect();
        let out = assert_matches_scalar(&n, cfg, &cv, &strikes);
        (n, q, out)
    }

    /// Through an XOR, a strike on the short side is timed (D pin, and its
    /// level lies past the bound) yet never fades, and its pulse straddles
    /// the window across strike times. A strike at the chain head fades on
    /// the way, which the replay settles (the dead chain leaves the XOR
    /// without a pulse). A strike on both sides cancels in the logical
    /// pass's XOR but latches once the chain pulse has faded, so the scalar
    /// kernel re-simulates it.
    #[test]
    fn deep_chain_into_a_straddled_d_pin_matches_scalar() {
        let (n, q, out) = deep_chain_sweep(CellKind::Xor);
        assert_eq!(out.timed_lanes(), WIDE_LANES);
        let chain_lanes = (0..WIDE_LANES).filter(|l| l % 3 != 0).count();
        let both_lanes = (0..WIDE_LANES).filter(|l| l % 3 == 2).count();
        assert_eq!(out.resimulated_lanes(), both_lanes);
        let settled: u32 = out.settled.iter().map(|w| w.count_ones()).sum();
        assert_eq!(settled as usize, chain_lanes);
        let latched = |rem: usize| {
            (0..WIDE_LANES)
                .filter(|l| l % 3 == rem && out.latched_dffs(&n, *l).contains(&q))
                .count()
        };
        let short_lanes = WIDE_LANES - chain_lanes;
        assert!(latched(0) > 0 && latched(0) < short_lanes, "{}", latched(0));
        assert_eq!(latched(1), 0);
        assert!(latched(2) > 0, "the faded chain must unmask the XOR");
    }

    /// Through an AND of two 0s, only a strike on both sides flips the
    /// output in the logical pass. Once the chain pulse has faded, that op
    /// has a dead and a live pulsing fanin, and the live one alone cannot
    /// flip it, so the scalar kernel re-simulates those lanes and nothing
    /// latches.
    #[test]
    fn mixed_dead_and_live_fanins_go_to_the_scalar_kernel() {
        let (n, _, out) = deep_chain_sweep(CellKind::And);
        let both_lanes = (0..WIDE_LANES).filter(|l| l % 3 == 2).count();
        assert_eq!(out.resimulated_lanes(), both_lanes);
        assert!((0..WIDE_LANES).all(|l| out.latched_dffs(&n, l).is_empty()));
    }

    /// Negative or NaN attenuation breaks the hop bound: every propagating
    /// lane is replayed, and each still equals the scalar kernel.
    #[test]
    fn negative_or_nan_attenuation_takes_the_exact_path() {
        let n = random_netlist(0x0E6A, 6, 150);
        let (cv, strikes) = random_strikes(&n, 0x0E6B);
        for attenuation_ps in [-5.0, f64::NAN] {
            let cfg = TransientConfig {
                attenuation_ps,
                ..tight()
            };
            let out = assert_matches_scalar(&n, cfg, &cv, &strikes);
            let propagating = (0..WIDE_LANES)
                .filter(|&l| out.pulses_propagated(l) > out.lane_pulses[l])
                .count();
            assert!(propagating > 0, "attenuation {attenuation_ps}");
            assert!(
                out.timed_lanes() >= propagating,
                "attenuation {attenuation_ps}"
            );
        }
    }

    /// Double-glitch lanes strike two separate spots, one shallow and one
    /// deep: the shallow one sets the lane's hop bound for both.
    #[test]
    fn double_glitch_lanes_match_scalar() {
        let n = random_netlist(0xD0B1, 6, 400);
        let (cv, _) = random_strikes(&n, 0xD0B2);
        let gates: Vec<GateId> = n
            .iter()
            .filter(|(_, g)| g.kind.is_combinational())
            .map(|(id, _)| id)
            .collect();
        let mut rng = Xs(0xD0B3);
        let spot = |r: &mut Xs, from: usize, to: usize| -> Vec<GateId> {
            let c = from + r.below(to - from);
            (0..1 + r.below(3))
                .map(|d| gates[(c + d).min(gates.len() - 1)])
                .collect()
        };
        let third = gates.len() / 3;
        let strikes: Vec<(Vec<GateId>, f64)> = (0..WIDE_LANES)
            .map(|_| {
                let mut cells = spot(&mut rng, 0, third);
                cells.extend(spot(&mut rng, 2 * third, gates.len()));
                (cells, rng.below(700) as f64)
            })
            .collect();
        let out = assert_matches_scalar(&n, tight(), &cv, &strikes);
        assert!(out.timed_lanes() > 0);
        let latched = (0..WIDE_LANES)
            .filter(|&l| !out.latched_dffs(&n, l).is_empty())
            .count();
        assert!(latched > 0, "no double-glitch lane latched");
    }

    /// The seeding [`seed_lane`] replaced: each struck cell's class,
    /// register index and level looked up one cell at a time.
    fn seed_per_cell(
        program: &GateProgram,
        cells: &[GateId],
        l: usize,
        pulse: &mut [WideMask],
        touched: &mut Vec<u32>,
        outcome: &mut CompiledStrikeOutcome,
    ) -> u32 {
        let (word, bit) = (l / 64, 1u64 << (l % 64));
        let mut shallowest = u32::MAX;
        for &g in cells {
            match program.net_class(g.index()) {
                NetClass::Dff => {
                    let i = program.dff_index(g.index()).expect("a Dff net is a DFF");
                    CompiledStrikeOutcome::mark(&mut outcome.upset, outcome.dff_words, l, i);
                }
                NetClass::Inert => {}
                NetClass::Comb => {
                    let gi = g.index();
                    if is_zero(&pulse[gi]) {
                        touched.push(gi as u32);
                    }
                    if pulse[gi][word] & bit == 0 {
                        outcome.lane_pulses[l] += 1;
                    }
                    pulse[gi][word] |= bit;
                    shallowest = shallowest.min(program.level(gi));
                }
            }
        }
        shallowest
    }

    /// Seeding a lane from its classified footprints leaves exactly what
    /// per-cell seeding of the lane's sorted, deduplicated cell union
    /// leaves: the pulse masks and touched nets, `lane_pulses` (an
    /// overlapped net counts once), the upset masks and the shallowest
    /// level. Lanes hold one footprint or two overlapping ones, drawn
    /// from every cell class, with repeats inside a footprint.
    #[test]
    fn footprint_seeding_equals_per_cell_seeding() {
        for seed in [3u64, 0xF00D, 0xBEEF] {
            let n = random_netlist(seed * 0x2545, 6, 200);
            let program = n.program().unwrap();
            let all: Vec<GateId> = n.iter().map(|(id, _)| id).collect();
            let mut rng = Xs(seed | 1);
            let spot = |r: &mut Xs| -> Vec<GateId> {
                let c = r.below(all.len());
                let mut cells: Vec<GateId> = (0..r.below(6))
                    .map(|d| all[(c + d * r.below(3)).min(all.len() - 1)])
                    .collect();
                cells.sort_unstable();
                cells
            };
            let spots: Vec<(Vec<GateId>, Option<Vec<GateId>>)> = (0..WIDE_LANES)
                .map(|l| {
                    let primary = spot(&mut rng);
                    let secondary = match l % 3 {
                        0 => None,
                        // Overlapping: the primary shifted by up to one cell.
                        1 => Some(
                            primary
                                .iter()
                                .map(|g| all[(g.index() + l % 2).min(all.len() - 1)])
                                .collect(),
                        ),
                        _ => Some(spot(&mut rng)),
                    };
                    (primary, secondary)
                })
                .collect();
            assert!(spots
                .iter()
                .any(|(p, s)| s.as_ref().is_some_and(|s| s.iter().any(|g| p.contains(g)))));
            let primaries = seeds_of(program, spots.iter().map(|(p, _)| &p[..]));
            let secondaries: Vec<Option<Seeds>> = spots
                .iter()
                .map(|(_, s)| s.as_ref().map(|s| Seeds::of(program, s)))
                .collect();

            let nets = program.nets();
            let dffs = n.dffs().len();
            let (mut got, mut want) = (
                CompiledStrikeOutcome::default(),
                CompiledStrikeOutcome::default(),
            );
            got.clear(WIDE_LANES, dffs);
            want.clear(WIDE_LANES, dffs);
            let (mut got_pulse, mut want_pulse) = (
                vec![[0u64; LANE_WORDS]; nets],
                vec![[0u64; LANE_WORDS]; nets],
            );
            let (mut got_touched, mut want_touched) = (Vec::new(), Vec::new());
            for l in 0..WIDE_LANES {
                let lane = BatchLane {
                    primary: primaries[l].footprint(),
                    secondary: secondaries[l].as_ref().map(Seeds::footprint),
                    strike_time_ps: 0.0,
                };
                let mut union = spots[l].0.clone();
                union.extend(spots[l].1.iter().flatten());
                union.sort_unstable();
                union.dedup();
                let shallowest = seed_lane(&lane, l, &mut got_pulse, &mut got_touched, &mut got);
                let reference = seed_per_cell(
                    program,
                    &union,
                    l,
                    &mut want_pulse,
                    &mut want_touched,
                    &mut want,
                );
                let ctx = format!("seed {seed} lane {l}");
                assert_eq!(shallowest, reference, "{ctx} shallowest level");
                assert_eq!(got.lane_pulses[l], want.lane_pulses[l], "{ctx} lane_pulses");
                assert_eq!(got.upset_mask(l), want.upset_mask(l), "{ctx} upset mask");
            }
            assert_eq!(got_pulse, want_pulse, "seed {seed} pulse masks");
            got_touched.sort_unstable();
            want_touched.sort_unstable();
            assert_eq!(got_touched, want_touched, "seed {seed} touched nets");
            assert!(want.lane_pulses.iter().any(|&p| p > 1));
            assert!((0..WIDE_LANES).any(|l| want.upset_mask(l).iter().any(|&w| w != 0)));
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
        let window = CycleWindow::from_cycles(&n, cycles.clone());
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
                    groups.push(window.group(c, [0; LANE_WORDS]));
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
            let seeds = seeds_of(program, strikes.iter().map(|(c, _)| &c[..]));
            let lanes = lanes_of(&seeds, strikes.iter().map(|&(_, t)| t));
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
        let window = CycleWindow::from_cycles(&n, vec![cv.clone()]);
        let seeds = seeds_of(n.program().unwrap(), [&[g][..]]);
        ts.strike_compiled_with(
            &n,
            n.program().unwrap(),
            &[window.group(0, one)],
            &lanes_of(&seeds, [0.0]),
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.latched_dffs(&n, 0), &[q]);
        assert!(out.upset_dffs(&n, 0).is_empty());
        assert_eq!(out.pulses_propagated(0), 1);
    }
}
