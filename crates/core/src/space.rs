//! The attack sample space derived from responding-signal cones
//! (pre-characterization step 1, Observation 1).
//!
//! Only circuitry in the fanin/fanout cones of the responding signal can
//! influence whether the illegal transition is created, so the candidate
//! strike centers for a given timing distance `t` are the cells of the
//! corresponding unrolled frame. A strike `t` cycles before the target
//! cycle corrupts state that needs `t − 1` sequential crossings (or `t − 1`
//! cycles of persistence) to still matter when the responding-signal
//! register is consumed, so timing distance `t` maps to fanin frame
//! `i = t − 1`; `t = 1` additionally reaches the fanout side (the
//! responding-signal register itself).
//!
//! Because the spot model strikes a *region*, a center just outside a cone
//! can still cover cone cells; the space therefore expands every frame by a
//! configurable halo so the importance distributions keep full support over
//! success-capable centers.

use crate::model::SystemModel;
use xlmc_netlist::cones;
use xlmc_netlist::{CellKind, GateId};

/// The candidate cells for one timing distance.
#[derive(Debug, Clone)]
pub struct TimingFrame {
    /// Timing distance `t = T_t − T_e`.
    pub t: i64,
    /// The unrolled frame index this `t` maps to.
    pub frame: i32,
    /// Raw cone cells of the frame (placeable only).
    pub cone_cells: Vec<GateId>,
    /// Candidate strike centers: cone cells plus the halo.
    pub cells: Vec<GateId>,
}

/// The full sample space over the configured timing-distance range.
#[derive(Debug, Clone)]
pub struct SampleSpace {
    frames: Vec<TimingFrame>,
    t_min: i64,
}

impl SampleSpace {
    /// Build the space for `t ∈ [1, t_max]` with the given halo radius.
    ///
    /// # Panics
    ///
    /// Panics when `t_max < 1`.
    pub fn build(model: &SystemModel, t_max: i64, halo_radius: f64) -> Self {
        assert!(t_max >= 1, "need at least one timing distance");
        let netlist = model.mpu.netlist();
        let rs = model.mpu.responding_signal();
        let cone = cones::cone_set(netlist, rs, (t_max - 1) as u32, 1);
        let mut placeable = vec![false; netlist.len()];
        for &g in model.placement.placeable() {
            placeable[g.index()] = true;
        }
        let is_placeable = |g: &GateId| placeable[g.index()];

        let mut frames: Vec<TimingFrame> = Vec::with_capacity(t_max as usize);
        for t in 1..=t_max {
            let frame = (t - 1) as i32;
            let mut cone_cells: Vec<GateId> = cone
                .frame(frame)
                .iter()
                .copied()
                .filter(is_placeable)
                .collect();
            if t == 1 {
                // The fanout side: the responding-signal register (and any
                // logic between it and the core) is attackable with t = 1.
                cone_cells.extend(cone.frame(-1).iter().copied().filter(is_placeable));
                cone_cells.sort_unstable();
                cone_cells.dedup();
            }
            // Deep frames repeat the steady config loop: expand each
            // distinct cone list once.
            let cells = match frames.last() {
                Some(prev) if prev.cone_cells == cone_cells => prev.cells.clone(),
                _ => expand_halo(model, &cone_cells, halo_radius),
            };
            frames.push(TimingFrame {
                t,
                frame,
                cone_cells,
                cells,
            });
        }
        Self { frames, t_min: 1 }
    }

    /// The frame for a timing distance, `None` outside the range.
    pub fn frame_for(&self, t: i64) -> Option<&TimingFrame> {
        let idx = t.checked_sub(self.t_min)?;
        self.frames.get(usize::try_from(idx).ok()?)
    }

    /// All frames in ascending `t` order.
    pub fn frames(&self) -> &[TimingFrame] {
        &self.frames
    }

    /// The union of candidate cells over all timing distances.
    pub fn all_cells(&self) -> Vec<GateId> {
        let mut all: Vec<GateId> = self
            .frames
            .iter()
            .flat_map(|f| f.cells.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Per-frame register counts for the sample-space-reduction figure
    /// (paper Figure 8(b)): `(t, registers_in_cone)` pairs.
    pub fn cone_register_counts(&self, model: &SystemModel) -> Vec<(i64, usize)> {
        let netlist = model.mpu.netlist();
        self.frames
            .iter()
            .map(|f| {
                let regs = f
                    .cone_cells
                    .iter()
                    .filter(|&&g| netlist.gate(g).kind == CellKind::Dff)
                    .count();
                (f.t, regs)
            })
            .collect()
    }
}

/// Cone cells plus every placeable cell within `radius` of one of them,
/// sorted, collected through a dense `GateId`-indexed membership table.
fn expand_halo(model: &SystemModel, cone_cells: &[GateId], radius: f64) -> Vec<GateId> {
    if radius <= 0.0 {
        return cone_cells.to_vec();
    }
    let mut member = vec![false; model.mpu.netlist().len()];
    let mut out = Vec::new();
    let mut near = Vec::new();
    for &c in cone_cells {
        model.placement.cells_within_into(c, radius, &mut near);
        for &g in std::iter::once(&c).chain(&near) {
            if !std::mem::replace(&mut member[g.index()], true) {
                out.push(g);
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use xlmc_soc::MpuBit;

    /// The per-frame build the dense, reusing one replaces: a `HashSet`
    /// placeable filter and a fresh halo expansion for every frame. Kept
    /// as the test oracle.
    fn reference_build(model: &SystemModel, t_max: i64, halo_radius: f64) -> Vec<TimingFrame> {
        let netlist = model.mpu.netlist();
        let rs = model.mpu.responding_signal();
        let cone = cones::cone_set(netlist, rs, (t_max - 1) as u32, 1);
        let placeable: HashSet<GateId> = model.placement.placeable().iter().copied().collect();
        let expand = |cone_cells: &[GateId]| {
            if halo_radius <= 0.0 {
                return cone_cells.to_vec();
            }
            let mut out: HashSet<GateId> = cone_cells.iter().copied().collect();
            for &c in cone_cells {
                out.extend(model.placement.cells_within(c, halo_radius));
            }
            let mut v: Vec<GateId> = out.into_iter().collect();
            v.sort_unstable();
            v
        };
        (1..=t_max)
            .map(|t| {
                let frame = (t - 1) as i32;
                let mut cone_cells: Vec<GateId> = cone
                    .frame(frame)
                    .iter()
                    .copied()
                    .filter(|g| placeable.contains(g))
                    .collect();
                if t == 1 {
                    cone_cells.extend(
                        cone.frame(-1)
                            .iter()
                            .copied()
                            .filter(|g| placeable.contains(g)),
                    );
                    cone_cells.sort_unstable();
                    cone_cells.dedup();
                }
                let cells = expand(&cone_cells);
                TimingFrame {
                    t,
                    frame,
                    cone_cells,
                    cells,
                }
            })
            .collect()
    }

    #[test]
    fn build_equals_the_per_frame_reference() {
        let m = model();
        for (t_max, halo) in [(8, 0.0), (8, 1.0), (50, 0.0), (50, 1.0)] {
            let space = SampleSpace::build(&m, t_max, halo);
            let want = reference_build(&m, t_max, halo);
            assert_eq!(space.frames().len(), want.len());
            for (got, want) in space.frames().iter().zip(&want) {
                let what = format!("t {} at t_max {t_max}, halo {halo}", want.t);
                assert_eq!((got.t, got.frame), (want.t, want.frame), "{what}");
                assert_eq!(got.cone_cells, want.cone_cells, "{what}");
                assert_eq!(got.cells, want.cells, "{what}");
            }
        }
    }

    fn model() -> SystemModel {
        SystemModel::with_defaults().unwrap()
    }

    #[test]
    fn t1_contains_comparator_logic_and_violation_register() {
        let m = model();
        let space = SampleSpace::build(&m, 10, 0.0);
        let f1 = space.frame_for(1).unwrap();
        // Frame 0 of the fanin cone: config + pipe registers and all the
        // comparator logic; fanout frame: the violation register.
        assert!(f1.cone_cells.contains(&m.mpu.dff(MpuBit::PipeAddr(0))));
        assert!(f1.cone_cells.contains(&m.mpu.dff(MpuBit::Enable)));
        assert!(f1.cone_cells.contains(&m.mpu.dff(MpuBit::Violation)));
        assert!(f1.cone_cells.len() > 300, "got {}", f1.cone_cells.len());
    }

    #[test]
    fn deeper_frames_shrink_to_the_config_loop() {
        let m = model();
        let space = SampleSpace::build(&m, 10, 0.0);
        let f1 = space.frame_for(1).unwrap();
        let f3 = space.frame_for(3).unwrap();
        let f9 = space.frame_for(9).unwrap();
        assert!(f3.cone_cells.len() < f1.cone_cells.len());
        // Config registers persist in every frame (hold-mux self-loop).
        for f in [f3, f9] {
            assert!(f.cone_cells.contains(&m.mpu.dff(MpuBit::Base(0, 0))));
            assert!(!f.cone_cells.contains(&m.mpu.dff(MpuBit::Violation)));
            assert!(!f.cone_cells.contains(&m.mpu.dff(MpuBit::PipeAddr(0))));
        }
        // Deep frames are the steady config loop.
        assert_eq!(f9.cone_cells.len(), f3.cone_cells.len());
    }

    #[test]
    fn sticky_registers_are_outside_every_frame() {
        let m = model();
        let space = SampleSpace::build(&m, 6, 0.0);
        for f in space.frames() {
            assert!(
                !f.cone_cells.contains(&m.mpu.dff(MpuBit::StickyViol)),
                "t = {}",
                f.t
            );
        }
    }

    #[test]
    fn halo_expands_but_never_shrinks() {
        let m = model();
        let bare = SampleSpace::build(&m, 4, 0.0);
        let halo = SampleSpace::build(&m, 4, 2.0);
        for t in 1..=4 {
            let b = bare.frame_for(t).unwrap();
            let h = halo.frame_for(t).unwrap();
            assert!(h.cells.len() >= b.cells.len(), "t = {t}");
            for g in &b.cells {
                assert!(h.cells.contains(g), "t = {t}: lost {g}");
            }
        }
    }

    #[test]
    fn sample_space_is_much_smaller_than_the_netlist() {
        let m = model();
        let space = SampleSpace::build(&m, 50, 0.0);
        let total_cells = m.placement.placeable().len();
        // Deep frames are tiny; the space-reduction effect of Observation 1.
        let deep = space.frame_for(50).unwrap().cone_cells.len();
        assert!(
            deep * 2 < total_cells,
            "deep frame {deep} vs total {total_cells}"
        );
        // And in register terms (the paper's Figure 8(b) metric) the deep
        // frames keep only the configuration registers.
        let deep_regs = space.cone_register_counts(&m).last().unwrap().1;
        let total_regs = m.mpu.netlist().dffs().len();
        assert!(
            deep_regs * 7 < total_regs * 6,
            "regs {deep_regs}/{total_regs}"
        );
    }

    #[test]
    fn frame_for_out_of_range_is_none() {
        let m = model();
        let space = SampleSpace::build(&m, 4, 0.0);
        assert!(space.frame_for(0).is_none());
        assert!(space.frame_for(5).is_none());
        assert!(space.frame_for(-1).is_none());
    }

    #[test]
    fn register_counts_decline_with_t() {
        let m = model();
        let space = SampleSpace::build(&m, 8, 0.0);
        let counts = space.cone_register_counts(&m);
        assert_eq!(counts.len(), 8);
        assert!(counts[0].1 > counts[3].1);
        // All counts bounded by the total register count.
        let total = m.mpu.netlist().dffs().len();
        for &(_, c) in &counts {
            assert!(c <= total);
        }
    }
}
