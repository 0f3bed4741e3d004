//! Connectivity-aware grid placement and radius queries.
//!
//! The radiation spot model of the paper selects a center gate `g` and a
//! radius `r`; every cell inside the radiated disc suffers a voltage
//! transient (following Fazeli et al.'s multiple-event-transient model,
//! paper ref. \[18\]). That only makes sense on a *placed* netlist, so this
//! module provides a deterministic stand-in for a physical placement: cells
//! are laid out on a unit-pitch square grid in breadth-first order from the
//! primary inputs, which keeps logically adjacent cells physically close —
//! the property the spot model actually depends on.

use crate::cell::CellKind;
use crate::netlist::{GateId, Netlist};
use std::collections::VecDeque;

/// A cell location in placement units (grid pitch = 1.0).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Euclidean distance to another point.
    pub fn distance(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A placed netlist: one grid location per *placeable* cell.
///
/// Placeable cells are combinational gates and DFFs; sources, constants and
/// output markers occupy no silicon and have no location.
#[derive(Debug, Clone)]
pub struct Placement {
    positions: Vec<Option<Point>>,
    placeable: Vec<GateId>,
    side: usize,
    /// Reverse map of the grid: `grid[row * side + col]` is the cell placed
    /// at that lattice point (cells sit on exact integer coordinates), so a
    /// radius query scans only the disc's bounding box instead of every
    /// placeable cell.
    grid: Vec<Option<GateId>>,
}

impl Placement {
    /// Place `netlist` on a square grid in BFS order from the primary
    /// inputs. Deterministic: the same netlist always yields the same
    /// placement.
    pub fn new(netlist: &Netlist) -> Self {
        let placeable: Vec<GateId> = netlist
            .iter()
            .filter(|(_, g)| {
                (g.kind.is_combinational() && g.kind != CellKind::Output) || g.kind == CellKind::Dff
            })
            .map(|(id, _)| id)
            .collect();
        let side = (placeable.len() as f64).sqrt().ceil() as usize;
        let side = side.max(1);

        // BFS from inputs over fanout edges gives a visiting order where
        // connected cells end up near each other on the snake-ordered grid.
        let fanouts = netlist.fanouts();
        let mut visited = vec![false; netlist.len()];
        let mut order: Vec<GateId> = Vec::with_capacity(placeable.len());
        // Seed from the primary inputs only: flip-flops are visited through
        // their D-pin logic, which keeps each register physically next to
        // the cone that drives it (as a real placer would).
        let mut queue: VecDeque<GateId> = netlist.inputs().iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            if visited[id.index()] {
                continue;
            }
            visited[id.index()] = true;
            let gate = netlist.gate(id);
            if (gate.kind.is_combinational() && gate.kind != CellKind::Output)
                || gate.kind == CellKind::Dff
            {
                order.push(id);
            }
            for &c in fanouts.of(id) {
                if !visited[c.index()] {
                    queue.push_back(c);
                }
            }
        }
        // Anything unreached (e.g. constant-driven logic) goes at the end,
        // in id order, so coverage is total.
        for &id in &placeable {
            if !visited[id.index()] {
                order.push(id);
            }
        }

        let mut positions = vec![None; netlist.len()];
        let rows = order.len().div_ceil(side).max(1);
        let mut grid = vec![None; rows * side];
        for (slot, &id) in order.iter().enumerate() {
            let row = slot / side;
            let col_raw = slot % side;
            // Snake rows so consecutive slots stay adjacent across row wraps.
            let col = if row.is_multiple_of(2) {
                col_raw
            } else {
                side - 1 - col_raw
            };
            positions[id.index()] = Some(Point {
                x: col as f64,
                y: row as f64,
            });
            grid[row * side + col] = Some(id);
        }
        Self {
            positions,
            placeable,
            side,
            grid,
        }
    }

    /// The location of a cell, `None` for non-placeable gates.
    pub fn position(&self, id: GateId) -> Option<Point> {
        self.positions.get(id.index()).copied().flatten()
    }

    /// All placeable cells (combinational gates and DFFs), in id order.
    pub fn placeable(&self) -> &[GateId] {
        &self.placeable
    }

    /// Grid side length in placement units.
    pub fn side(&self) -> usize {
        self.side
    }

    /// All placed cells within Euclidean distance `radius` of the location
    /// of `center` (inclusive; always contains `center` itself when placed).
    pub fn cells_within(&self, center: GateId, radius: f64) -> Vec<GateId> {
        let mut out = Vec::new();
        self.cells_within_into(center, radius, &mut out);
        out
    }

    /// [`Placement::cells_within`] into a caller-owned buffer (cleared
    /// first).
    pub fn cells_within_into(&self, center: GateId, radius: f64, out: &mut Vec<GateId>) {
        out.clear();
        let Some(c) = self.position(center) else {
            return;
        };
        // Scan the disc's bounding box on the lattice; the exact Euclidean
        // predicate below keeps the result set identical to a full scan.
        let r = radius.max(0.0);
        let rows = self.grid.len() / self.side;
        let row_lo = ((c.y - r).ceil().max(0.0)) as usize;
        let row_hi = ((c.y + r).floor() as usize).min(rows.saturating_sub(1));
        let col_lo = ((c.x - r).ceil().max(0.0)) as usize;
        let col_hi = ((c.x + r).floor() as usize).min(self.side - 1);
        for row in row_lo..=row_hi {
            for col in col_lo..=col_hi {
                if let Some(g) = self.grid[row * self.side + col] {
                    let p = Point {
                        x: col as f64,
                        y: row as f64,
                    };
                    if p.distance(c) <= radius {
                        out.push(g);
                    }
                }
            }
        }
        // The linear scan this replaces returned cells in id order.
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(len: usize) -> Netlist {
        let mut n = Netlist::new();
        let mut prev = n.add_input("a");
        for _ in 0..len {
            prev = n.add_gate(CellKind::Not, &[prev]);
        }
        n.add_output("y", prev);
        n
    }

    #[test]
    fn every_placeable_cell_gets_a_position() {
        let n = chain(37);
        let p = Placement::new(&n);
        assert_eq!(p.placeable().len(), 37);
        for &g in p.placeable() {
            assert!(p.position(g).is_some(), "{g} unplaced");
        }
    }

    #[test]
    fn non_placeable_cells_have_no_position() {
        let n = chain(3);
        let p = Placement::new(&n);
        let input = n.inputs()[0];
        let output = n.outputs()[0];
        assert!(p.position(input).is_none());
        assert!(p.position(output).is_none());
    }

    #[test]
    fn positions_are_unique() {
        let n = chain(50);
        let p = Placement::new(&n);
        let mut seen = std::collections::HashSet::new();
        for &g in p.placeable() {
            let pt = p.position(g).unwrap();
            assert!(seen.insert((pt.x as i64, pt.y as i64)), "overlap at {pt:?}");
        }
    }

    #[test]
    fn connected_cells_are_adjacent_in_a_chain() {
        // In a pure chain the BFS order is the chain order, so consecutive
        // gates must be at distance ~1 (or a row wrap's diagonal).
        let n = chain(20);
        let p = Placement::new(&n);
        let gates = p.placeable();
        for w in gates.windows(2) {
            let a = p.position(w[0]).unwrap();
            let b = p.position(w[1]).unwrap();
            assert!(a.distance(b) <= 2.0_f64.sqrt() + 1e-9);
        }
    }

    #[test]
    fn radius_query_contains_center_and_grows() {
        let n = chain(25);
        let p = Placement::new(&n);
        let center = p.placeable()[12];
        let near = p.cells_within(center, 0.0);
        assert_eq!(near, vec![center]);
        let r1 = p.cells_within(center, 1.0);
        let r2 = p.cells_within(center, 2.5);
        assert!(r1.len() > 1);
        assert!(r2.len() > r1.len());
        for g in &r1 {
            assert!(r2.contains(g));
        }
    }

    #[test]
    fn grid_query_matches_linear_scan() {
        // The bucketed query must return exactly what the original full
        // scan returned — same cells, same (id) order — for radii around
        // lattice-distance boundaries.
        let n = chain(61);
        let p = Placement::new(&n);
        for &center in p.placeable().iter().step_by(7) {
            let c = p.position(center).unwrap();
            for radius in [0.0, 0.5, 1.0, std::f64::consts::SQRT_2, 2.0, 2.9, 100.0] {
                let mut linear: Vec<GateId> = p
                    .placeable()
                    .iter()
                    .copied()
                    .filter(|&g| {
                        p.position(g)
                            .map(|q| q.distance(c) <= radius)
                            .unwrap_or(false)
                    })
                    .collect();
                linear.sort_unstable();
                assert_eq!(
                    p.cells_within(center, radius),
                    linear,
                    "center {center} radius {radius}"
                );
            }
        }
    }

    #[test]
    fn radius_query_on_unplaced_gate_is_empty() {
        let n = chain(4);
        let p = Placement::new(&n);
        assert!(p.cells_within(n.inputs()[0], 10.0).is_empty());
    }

    #[test]
    fn placement_is_deterministic() {
        let n = chain(30);
        let p1 = Placement::new(&n);
        let p2 = Placement::new(&n);
        for &g in p1.placeable() {
            assert_eq!(p1.position(g).unwrap(), p2.position(g).unwrap());
        }
    }

    #[test]
    fn dff_only_logic_is_reached() {
        // A self-looped counter bit with no PI connectivity.
        let mut n = Netlist::new();
        let q_id = GateId(1);
        let inv = n.add_gate(CellKind::Not, &[q_id]);
        let q = n.add_dff("q", inv);
        assert_eq!(q, q_id);
        let p = Placement::new(&n);
        assert!(p.position(inv).is_some());
        assert!(p.position(q).is_some());
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Point { x: 0.0, y: 0.0 };
        let b = Point { x: 3.0, y: 4.0 };
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
    }
}
