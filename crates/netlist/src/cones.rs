//! Time-frame fanin/fanout cones of a signal.
//!
//! The pre-characterization of the paper (Observation 1) restricts the attack
//! sample space to the circuit in the fanin and fanout cones of the
//! *responding signals*. Because a bit flip needs one clock cycle per
//! sequential element it crosses, cones are indexed by the **unrolled frame**
//! `i`: a flip at a gate in frame `i >= 0` (fanin side) needs `i` cycles to
//! reach the responding signal, while frames `i < 0` lie on the fanout side
//! (between the responding signal and the core).

use crate::cell::CellKind;
use crate::netlist::{GateId, Netlist};
use std::collections::{BTreeMap, VecDeque};

/// The set of gates belonging to one unrolled frame of a cone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cone {
    gates: Vec<GateId>,
}

impl Cone {
    /// The gates of this frame, sorted by id.
    pub fn iter(&self) -> impl Iterator<Item = &GateId> {
        self.gates.iter()
    }

    /// The gates of this frame as a slice, sorted by id.
    pub fn as_slice(&self) -> &[GateId] {
        &self.gates
    }

    /// Number of gates in the frame.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Binary-search membership test.
    pub fn contains(&self, id: GateId) -> bool {
        self.gates.binary_search(&id).is_ok()
    }
}

/// Cones of one signal across unrolled frames.
///
/// Produced by [`fanin_cone`], [`fanout_cone`] or [`cone_set`]; frame `i >= 0`
/// holds the fanin side, `i < 0` the fanout side.
#[derive(Debug, Clone, Default)]
pub struct ConeSet {
    frames: BTreeMap<i32, Cone>,
}

impl ConeSet {
    /// The cone of frame `i` (empty when the frame was not computed).
    pub fn frame(&self, i: i32) -> &Cone {
        static EMPTY: Cone = Cone { gates: Vec::new() };
        self.frames.get(&i).unwrap_or(&EMPTY)
    }

    /// Iterate `(frame, cone)` in ascending frame order.
    pub fn iter(&self) -> impl Iterator<Item = (i32, &Cone)> {
        self.frames.iter().map(|(&i, c)| (i, c))
    }

    /// The frame indices present, ascending.
    pub fn frame_indices(&self) -> Vec<i32> {
        self.frames.keys().copied().collect()
    }

    /// Union of all frames (deduplicated, sorted).
    pub fn union(&self) -> Vec<GateId> {
        let mut all: Vec<GateId> = self
            .frames
            .values()
            .flat_map(|c| c.gates.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// The DFF registers present in frame `i`.
    pub fn registers_in_frame<'a>(&'a self, netlist: &'a Netlist, i: i32) -> Vec<GateId> {
        self.frame(i)
            .iter()
            .copied()
            .filter(|&g| netlist.gate(g).kind == CellKind::Dff)
            .collect()
    }

    fn insert(&mut self, frame: i32, mut gates: Vec<GateId>) {
        gates.sort_unstable();
        gates.dedup();
        self.frames.insert(frame, Cone { gates });
    }
}

/// Backward combinational closure from a seed set.
///
/// Returns `(gates_in_frame, frontier_dff_d_pins)`: the closure includes the
/// seeds, every combinational gate reached, and every DFF whose *output* is
/// consumed (the DFF belongs to the frame; its D-pin driver seeds the next,
/// earlier frame). Visited gates are marked in a dense `GateId`-indexed
/// table.
fn backward_closure(netlist: &Netlist, seeds: &[GateId]) -> (Vec<GateId>, Vec<GateId>) {
    let mut seen = vec![false; netlist.len()];
    let mut gates = Vec::new();
    let mut frontier_d = Vec::new();
    let mut queue: VecDeque<GateId> = seeds.iter().copied().collect();
    while let Some(id) = queue.pop_front() {
        if std::mem::replace(&mut seen[id.index()], true) {
            continue;
        }
        gates.push(id);
        let gate = netlist.gate(id);
        match gate.kind {
            CellKind::Dff => frontier_d.push(gate.fanin[0]),
            CellKind::Input | CellKind::Const(_) => {}
            _ => queue.extend(gate.fanin.iter().copied()),
        }
    }
    (gates, frontier_d)
}

/// Forward combinational closure from a seed set.
///
/// Returns `(gates_in_frame, frontier_dffs)`: the closure includes the seeds,
/// every combinational consumer reached, and every DFF whose D pin consumes a
/// reached signal (the DFF belongs to the frame; its output seeds the next,
/// later frame).
fn forward_closure(
    netlist: &Netlist,
    fanouts: &crate::netlist::FanoutAdjacency,
    seeds: &[GateId],
) -> (Vec<GateId>, Vec<GateId>) {
    let mut is_seed = vec![false; netlist.len()];
    for &s in seeds {
        is_seed[s.index()] = true;
    }
    let mut seen = vec![false; netlist.len()];
    let mut gates = Vec::new();
    let mut frontier_q = Vec::new();
    let mut queue: VecDeque<GateId> = seeds.iter().copied().collect();
    while let Some(id) = queue.pop_front() {
        if std::mem::replace(&mut seen[id.index()], true) {
            continue;
        }
        gates.push(id);
        if netlist.gate(id).kind == CellKind::Dff && !is_seed[id.index()] {
            frontier_q.push(id);
            continue;
        }
        queue.extend(fanouts.of(id).iter().copied());
    }
    (gates, frontier_q)
}

/// Fanin cones of `signal` for frames `0..=max_frame`.
///
/// Frame 0 contains `signal`, its backward combinational closure and the DFFs
/// directly feeding that logic; frame `i+1` continues from the D pins of the
/// DFFs of frame `i`.
///
/// A frame is a function of its seed *set* alone, so once a frame's sorted,
/// deduplicated seeds equal the previous frame's, every later frame repeats
/// it (a register loop's steady state) and is copied instead of walked.
pub fn fanin_cone(netlist: &Netlist, signal: GateId, max_frame: u32) -> ConeSet {
    let mut set = ConeSet::default();
    let mut seeds = vec![signal];
    let mut prev_seeds: Vec<GateId> = Vec::new();
    for frame in 0..=max_frame {
        seeds.sort_unstable();
        seeds.dedup();
        if frame > 0 && seeds == prev_seeds {
            let steady = set.frame(frame as i32 - 1).clone();
            for later in frame..=max_frame {
                set.frames.insert(later as i32, steady.clone());
            }
            break;
        }
        let (gates, frontier_d) = backward_closure(netlist, &seeds);
        if gates.is_empty() {
            break;
        }
        set.insert(frame as i32, gates);
        if frontier_d.is_empty() {
            break;
        }
        prev_seeds = std::mem::replace(&mut seeds, frontier_d);
    }
    set
}

/// Fanout cones of `signal` for frames `-1..=-max_frame`.
///
/// Frame -1 contains the forward combinational closure of `signal` together
/// with the DFFs that latch it; frame `-(i+1)` continues from those DFFs'
/// outputs.
pub fn fanout_cone(netlist: &Netlist, signal: GateId, max_frame: u32) -> ConeSet {
    let fanouts = netlist.fanouts();
    let mut set = ConeSet::default();
    let mut seeds = vec![signal];
    for frame in 1..=max_frame {
        let (mut gates, frontier_q) = forward_closure(netlist, fanouts, &seeds);
        // DFFs reached belong to this frame even though traversal stops there.
        gates.extend(frontier_q.iter().copied());
        if gates.is_empty() {
            break;
        }
        set.insert(-(frame as i32), gates);
        if frontier_q.is_empty() {
            break;
        }
        seeds = frontier_q;
    }
    set
}

/// Combined fanin (`0..=max_fanin_frame`) and fanout (`-1..=-max_fanout_frame`)
/// cones of `signal`, as used by the pre-characterization.
pub fn cone_set(
    netlist: &Netlist,
    signal: GateId,
    max_fanin_frame: u32,
    max_fanout_frame: u32,
) -> ConeSet {
    let mut set = fanin_cone(netlist, signal, max_fanin_frame);
    let out = fanout_cone(netlist, signal, max_fanout_frame);
    for (i, cone) in out.iter() {
        set.insert(i, cone.gates.clone());
    }
    set
}

/// The plain per-frame BFS the dense, fixed-point walks above replace:
/// `HashSet`-marked closures, every frame walked. Kept as the test oracle.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use std::collections::HashSet;

    fn backward_closure(netlist: &Netlist, seeds: &[GateId]) -> (Vec<GateId>, Vec<GateId>) {
        let mut seen: HashSet<GateId> = HashSet::new();
        let mut frontier_d = Vec::new();
        let mut queue: VecDeque<GateId> = seeds.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            if !seen.insert(id) {
                continue;
            }
            let gate = netlist.gate(id);
            match gate.kind {
                CellKind::Dff => frontier_d.push(gate.fanin[0]),
                CellKind::Input | CellKind::Const(_) => {}
                _ => {
                    for &f in &gate.fanin {
                        queue.push_back(f);
                    }
                }
            }
        }
        (seen.into_iter().collect(), frontier_d)
    }

    fn forward_closure(netlist: &Netlist, seeds: &[GateId]) -> (Vec<GateId>, Vec<GateId>) {
        let fanouts = netlist.fanouts();
        let mut seen: HashSet<GateId> = HashSet::new();
        let mut frontier_q = Vec::new();
        let mut queue: VecDeque<GateId> = seeds.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            if !seen.insert(id) {
                continue;
            }
            let gate = netlist.gate(id);
            if gate.kind == CellKind::Dff && !seeds.contains(&id) {
                frontier_q.push(id);
                continue;
            }
            for &consumer in fanouts.of(id) {
                queue.push_back(consumer);
            }
        }
        (seen.into_iter().collect(), frontier_q)
    }

    pub(crate) fn cone_set(
        netlist: &Netlist,
        signal: GateId,
        max_fanin_frame: u32,
        max_fanout_frame: u32,
    ) -> ConeSet {
        let mut set = ConeSet::default();
        let mut seeds = vec![signal];
        for frame in 0..=max_fanin_frame {
            let (gates, frontier_d) = backward_closure(netlist, &seeds);
            if gates.is_empty() {
                break;
            }
            set.insert(frame as i32, gates);
            if frontier_d.is_empty() {
                break;
            }
            seeds = frontier_d;
        }
        let mut seeds = vec![signal];
        for frame in 1..=max_fanout_frame {
            let (mut gates, frontier_q) = forward_closure(netlist, &seeds);
            gates.extend(frontier_q.iter().copied());
            if gates.is_empty() {
                break;
            }
            set.insert(-(frame as i32), gates);
            if frontier_q.is_empty() {
                break;
            }
            seeds = frontier_q;
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_frames_equal(got: &ConeSet, want: &ConeSet, what: &str) {
        assert_eq!(got.frame_indices(), want.frame_indices(), "{what}");
        for (i, cone) in want.iter() {
            assert_eq!(got.frame(i), cone, "{what}: frame {i}");
        }
    }

    /// A miniature MPU: a configuration bank with hold-mux self-loops
    /// written from an input bus, request pipeline registers, a comparator
    /// combining both into the responding signal `viol`, its register and
    /// a sticky flag behind it.
    fn config_loop_pipeline(regs: usize) -> (Netlist, GateId) {
        let mut n = Netlist::new();
        let wen = n.add_input("wen");
        let mut terms = Vec::new();
        for r in 0..regs {
            let wdata = n.add_input(format!("wdata{r}"));
            let req = n.add_input(format!("req{r}"));
            let placeholder = n.add_const(false);
            let cfg = n.add_dff(format!("cfg{r}"), placeholder);
            let hold = n.add_gate(CellKind::Mux, &[wen, cfg, wdata]);
            n.set_fanin(cfg, vec![hold]);
            let pipe = n.add_dff(format!("pipe{r}"), req);
            terms.push(n.add_gate(CellKind::Xor, &[cfg, pipe]));
        }
        let viol = n.add_gate(CellKind::Or, &terms);
        let q = n.add_dff("viol_q", viol);
        let placeholder = n.add_const(false);
        let sticky = n.add_dff("sticky", placeholder);
        let d = n.add_gate(CellKind::Or, &[sticky, q]);
        n.set_fanin(sticky, vec![d]);
        n.add_output("y", q);
        (n, viol)
    }

    /// A random sequential netlist: combinational gates read earlier gates
    /// or any register; register D pins read any gate (loops included).
    fn random_netlist(seed: u64, inputs: usize, dffs: usize, gates: usize) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = Netlist::new();
        let mut pool: Vec<GateId> = (0..inputs).map(|i| n.add_input(format!("i{i}"))).collect();
        let placeholder = n.add_const(false);
        let regs: Vec<GateId> = (0..dffs)
            .map(|i| n.add_dff(format!("r{i}"), placeholder))
            .collect();
        pool.extend(&regs);
        for _ in 0..gates {
            let kind =
                [CellKind::And, CellKind::Or, CellKind::Xor, CellKind::Nand][rng.gen_range(0..4)];
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            pool.push(n.add_gate(kind, &[a, b]));
        }
        for &r in &regs {
            let d = pool[rng.gen_range(0..pool.len())];
            n.set_fanin(r, vec![d]);
        }
        n
    }

    #[test]
    fn fixed_point_cones_equal_the_per_frame_bfs_on_a_config_loop() {
        let (n, viol) = config_loop_pipeline(8);
        for t_max in [8u32, 50] {
            let got = cone_set(&n, viol, t_max - 1, 1);
            let want = reference::cone_set(&n, viol, t_max - 1, 1);
            assert_frames_equal(&got, &want, &format!("t_max {t_max}"));
        }
        // Deep frames are the steady config loop.
        let cones = cone_set(&n, viol, 49, 1);
        assert_eq!(cones.frame(2), cones.frame(49));
        assert!(!cones.frame(49).is_empty());
    }

    proptest! {
        #[test]
        fn fixed_point_cones_equal_the_per_frame_bfs_on_random_netlists(
            seed in any::<u64>(),
            dffs in 1usize..12,
            gates in 1usize..40,
            pick in any::<usize>(),
        ) {
            let n = random_netlist(seed, 3, dffs, gates);
            let signal = GateId((pick % n.len()) as u32);
            for t_max in [8u32, 50] {
                let got = cone_set(&n, signal, t_max - 1, 1);
                let want = reference::cone_set(&n, signal, t_max - 1, 1);
                prop_assert_eq!(got.frame_indices(), want.frame_indices());
                for (i, cone) in want.iter() {
                    prop_assert_eq!(got.frame(i), cone, "frame {}", i);
                }
            }
        }
    }

    /// Two-stage pipeline:
    ///   a,b -> and1 -> dff1 -> not -> dff2 -> or(out, c)
    fn pipeline() -> (Netlist, [GateId; 6]) {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let and1 = n.add_gate(CellKind::And, &[a, b]);
        let dff1 = n.add_dff("dff1", and1);
        let not1 = n.add_gate(CellKind::Not, &[dff1]);
        let dff2 = n.add_dff("dff2", not1);
        let or1 = n.add_gate(CellKind::Or, &[dff2, c]);
        n.add_output("y", or1);
        (n, [and1, dff1, not1, dff2, or1, c])
    }

    #[test]
    fn fanin_frames_walk_back_through_registers() {
        let (n, [and1, dff1, not1, dff2, or1, c]) = pipeline();
        let cones = fanin_cone(&n, or1, 3);
        // Frame 0: or1, its inputs dff2 and c.
        assert!(cones.frame(0).contains(or1));
        assert!(cones.frame(0).contains(dff2));
        assert!(cones.frame(0).contains(c));
        assert!(!cones.frame(0).contains(not1));
        // Frame 1: not1 (D logic of dff2) and dff1.
        assert!(cones.frame(1).contains(not1));
        assert!(cones.frame(1).contains(dff1));
        assert!(!cones.frame(1).contains(and1));
        // Frame 2: and1 and the PIs a, b.
        assert!(cones.frame(2).contains(and1));
        // Frame 3 empty: PIs terminate the walk.
        assert!(cones.frame(3).is_empty());
    }

    #[test]
    fn fanout_frames_walk_forward_through_registers() {
        let (n, [_, dff1, not1, dff2, or1, _]) = pipeline();
        // Fanout of dff1's D driver region: start from dff1 output.
        let cones = fanout_cone(&n, dff1, 3);
        assert!(cones.frame(-1).contains(not1));
        assert!(cones.frame(-1).contains(dff2));
        assert!(!cones.frame(-1).contains(or1));
        assert!(cones.frame(-2).contains(or1));
        assert!(cones.frame(-3).is_empty());
    }

    #[test]
    fn cone_set_merges_both_sides() {
        let (n, [_, dff1, not1, _, _, _]) = pipeline();
        let cones = cone_set(&n, dff1, 2, 2);
        let idx = cones.frame_indices();
        assert!(idx.contains(&0));
        assert!(idx.contains(&1));
        assert!(idx.contains(&-1));
        assert!(cones.frame(-1).contains(not1));
    }

    #[test]
    fn registers_in_frame_filters_dffs() {
        let (n, [_, dff1, _, dff2, or1, _]) = pipeline();
        let cones = fanin_cone(&n, or1, 2);
        assert_eq!(cones.registers_in_frame(&n, 0), vec![dff2]);
        assert_eq!(cones.registers_in_frame(&n, 1), vec![dff1]);
    }

    #[test]
    fn union_deduplicates() {
        let (n, _) = pipeline();
        let y = n.find("y").unwrap();
        let cones = fanin_cone(&n, y, 5);
        let union = cones.union();
        let mut sorted = union.clone();
        sorted.dedup();
        assert_eq!(union.len(), sorted.len());
        assert!(union.len() <= n.len());
    }

    #[test]
    fn reconvergence_keeps_gate_in_both_frames() {
        // Input x feeds both frame-0 logic and (through a DFF) frame-1 logic:
        //   shared -> or(out, dffq), shared -> dffd
        let mut n = Netlist::new();
        let x = n.add_input("x");
        let shared = n.add_gate(CellKind::Not, &[x]);
        let dff = n.add_dff("r", shared);
        let out = n.add_gate(CellKind::Or, &[shared, dff]);
        n.add_output("y", out);
        let cones = fanin_cone(&n, out, 2);
        assert!(cones.frame(0).contains(shared));
        assert!(cones.frame(1).contains(shared));
    }

    #[test]
    fn cone_of_input_is_just_the_input() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        n.add_output("y", a);
        let cones = fanin_cone(&n, a, 4);
        assert_eq!(cones.frame(0).as_slice(), &[a]);
        assert!(cones.frame(1).is_empty());
    }
}
