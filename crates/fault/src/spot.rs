//! The radiated-spot model: from `p = [g, r]` to the impacted cell set.
//!
//! Paper §3.2: "We assume one radiation can cause voltage transients at all
//! the gates that are in the radiated region and leverage the method in
//! \[18\] to determine all the impacted gates based on g and r." On our
//! placed netlist that is a Euclidean radius query around the center cell.

use xlmc_netlist::{GateId, Placement};

/// A radiated spot: the technique parameter vector `p` of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiationSpot {
    /// Center cell of the radiation.
    pub center: GateId,
    /// Radius in placement units.
    pub radius: f64,
}

impl RadiationSpot {
    /// All placed cells inside the spot (always includes the center when
    /// it is a placed cell).
    pub fn impacted_cells(&self, placement: &Placement) -> Vec<GateId> {
        placement.cells_within(self.center, self.radius)
    }

    /// [`RadiationSpot::impacted_cells`] into a caller-owned buffer
    /// (cleared first).
    pub fn impacted_cells_into(&self, placement: &Placement, out: &mut Vec<GateId>) {
        placement.cells_within_into(self.center, self.radius, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlmc_netlist::{CellKind, Netlist};

    fn grid_netlist(cells: usize) -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let mut prev = a;
        for _ in 0..cells {
            prev = n.add_gate(CellKind::Buf, &[prev]);
        }
        n.add_output("y", prev);
        n
    }

    #[test]
    fn zero_radius_hits_only_the_center() {
        let n = grid_netlist(25);
        let p = Placement::new(&n);
        let center = p.placeable()[7];
        let spot = RadiationSpot {
            center,
            radius: 0.0,
        };
        assert_eq!(spot.impacted_cells(&p), vec![center]);
    }

    #[test]
    fn larger_radius_hits_more_cells_monotonically() {
        let n = grid_netlist(49);
        let p = Placement::new(&n);
        let center = p.placeable()[24];
        let mut last = 0;
        for r in [0.0, 1.0, 1.5, 2.5, 4.0] {
            let hit = RadiationSpot { center, radius: r }.impacted_cells(&p).len();
            assert!(hit >= last, "radius {r}: {hit} < {last}");
            last = hit;
        }
        assert!(last > 5);
    }

    #[test]
    fn huge_radius_covers_the_whole_die() {
        let n = grid_netlist(30);
        let p = Placement::new(&n);
        let spot = RadiationSpot {
            center: p.placeable()[0],
            radius: 1e6,
        };
        assert_eq!(spot.impacted_cells(&p).len(), p.placeable().len());
    }
}
