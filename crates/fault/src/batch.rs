//! Packed strike construction: cached, classified spot footprints.
//!
//! A campaign strikes the same few `(center, radius)` spots over and over,
//! so each spot's footprint is queried once and kept, together with what
//! the strike does to each of its cells: the combinational nets that
//! pulse, the registers that are upset and the shallowest pulsing level
//! ([`Footprint`]). A lane of the compiled kernel is then just one or two
//! footprint indices and a strike moment: nothing per cell is copied or
//! re-classified per lane, and the whole structure is reused sweep after
//! sweep without touching the allocator once its spots are cached.

use xlmc_netlist::{Footprint, GateId, GateProgram, Placement};

use crate::sample::AttackSample;
use crate::spot::RadiationSpot;

/// A footprint id not assigned yet, and a lane without a second spot.
const NONE: u32 = u32::MAX;

/// The strikes of one lane batch, as footprint slots, reusable.
///
/// The footprint cache makes an instance valid against **one placement
/// and one gate program**: keep one per worker and campaign, never move it
/// to another model.
#[derive(Debug, Clone, Default)]
pub struct LaneStrikes {
    /// Per lane: its primary and (double-glitch) secondary footprint id.
    lanes: Vec<[u32; 2]>,
    times: Vec<f64>,
    query: Vec<GateId>,
    /// Per distinct radius (by its bits), the footprint id of each center
    /// index.
    by_spot: Vec<(u64, Vec<u32>)>,
    /// Per footprint id: its `(start, len)` in `footprints`.
    slots: Vec<(u32, u32)>,
    /// Every cached footprint's words, back to back.
    footprints: Vec<u32>,
}

impl LaneStrikes {
    /// Drop all lanes (keeps capacity and the footprint cache).
    pub fn clear(&mut self) {
        self.lanes.clear();
        self.times.clear();
    }

    /// Number of lanes recorded.
    pub fn lanes(&self) -> usize {
        self.times.len()
    }

    /// Append one lane: the spot query of `sample` against `placement`,
    /// classified against `program`, plus the sample's intra-cycle strike
    /// moment.
    pub fn push_sample(
        &mut self,
        sample: &AttackSample,
        placement: &Placement,
        program: &GateProgram,
        clock_period_ps: f64,
    ) {
        self.push_sample_with(sample, None, placement, program, clock_period_ps);
    }

    /// [`LaneStrikes::push_sample`] with an optional secondary spot (the
    /// double-glitch mode): the lane strikes both footprints, which may
    /// overlap. Its cells as one list are the sorted, deduplicated union
    /// ([`LaneStrikes::struck_into`]), which is what the scalar path
    /// strikes when it merges the second spot into its struck buffer.
    pub fn push_sample_with(
        &mut self,
        sample: &AttackSample,
        second: Option<&RadiationSpot>,
        placement: &Placement,
        program: &GateProgram,
        clock_period_ps: f64,
    ) {
        let spot = RadiationSpot {
            center: sample.center,
            radius: sample.radius,
        };
        let primary = self.spot_id(&spot, placement, program);
        let secondary = second.map(|s| self.spot_id(s, placement, program));
        self.push_lane(primary, secondary, sample.strike_time_ps(clock_period_ps));
    }

    /// Append one lane by footprint ids ([`LaneStrikes::spot_id`]) and
    /// strike moment.
    pub fn push_lane(&mut self, primary: u32, secondary: Option<u32>, strike_time_ps: f64) {
        self.lanes.push([primary, secondary.unwrap_or(NONE)]);
        self.times.push(strike_time_ps);
    }

    /// The dense id of `spot`'s cached footprint, queried with
    /// [`RadiationSpot::impacted_cells_into`] and classified on first use.
    /// Ids count up from 0 in order of first use, one per distinct
    /// `(center, radius)`, and never change.
    pub fn spot_id(
        &mut self,
        spot: &RadiationSpot,
        placement: &Placement,
        program: &GateProgram,
    ) -> u32 {
        let bits = spot.radius.to_bits();
        let k = match self.by_spot.iter().position(|(b, _)| *b == bits) {
            Some(k) => k,
            None => {
                self.by_spot.push((bits, Vec::new()));
                self.by_spot.len() - 1
            }
        };
        let slots = &mut self.by_spot[k].1;
        let c = spot.center.index();
        if c >= slots.len() {
            slots.resize(c + 1, NONE);
        }
        if slots[c] == NONE {
            spot.impacted_cells_into(placement, &mut self.query);
            let start = self.footprints.len();
            let len = program.classify_into(&self.query, &mut self.footprints);
            // Spots hit placed cells only, and every placed cell pulses or
            // upsets, so the footprint names every cell.
            debug_assert_eq!(len, 2 + self.query.len(), "a struck cell is inert");
            slots[c] = self.slots.len() as u32;
            self.slots.push((start as u32, len as u32));
        }
        slots[c]
    }

    /// The cached footprint of id `id`.
    pub fn footprint(&self, id: u32) -> Footprint<'_> {
        let (start, len) = self.slots[id as usize];
        Footprint::new(&self.footprints[start as usize..(start + len) as usize])
    }

    /// Lane `l`'s footprints: its primary spot's and, in the double-glitch
    /// mode, its secondary spot's.
    pub fn footprints(&self, lane: usize) -> (Footprint<'_>, Option<Footprint<'_>>) {
        let [primary, secondary] = self.lanes[lane];
        (
            self.footprint(primary),
            (secondary != NONE).then(|| self.footprint(secondary)),
        )
    }

    /// Lane `l`'s struck cells as one list, sorted and deduplicated, into
    /// `out` (cleared first): what the scalar kernel strikes. `program` is
    /// the one the footprints were classified against.
    pub fn struck_into(&self, lane: usize, program: &GateProgram, out: &mut Vec<GateId>) {
        out.clear();
        let (primary, secondary) = self.footprints(lane);
        for fp in std::iter::once(primary).chain(secondary) {
            out.extend(fp.comb_nets().iter().map(|&g| GateId(g)));
            out.extend(fp.dffs().iter().map(|&i| program.dff_d()[i as usize].0));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Lane `l`'s strike moment within the cycle, in picoseconds.
    pub fn strike_time_ps(&self, lane: usize) -> f64 {
        self.times[lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlmc_netlist::{CellKind, NetClass, Netlist};

    /// Lane `l`'s cells as one list.
    fn struck(batch: &LaneStrikes, prog: &GateProgram, lane: usize) -> Vec<GateId> {
        let mut out = vec![GateId(u32::MAX)];
        batch.struck_into(lane, prog, &mut out);
        out
    }

    fn chain(cells: usize) -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let mut prev = a;
        for i in 0..cells {
            prev = n.add_gate(CellKind::Buf, &[prev]);
            if i % 5 == 4 {
                n.add_dff(format!("q{i}"), prev);
            }
        }
        n.add_output("y", prev);
        n
    }

    #[test]
    fn lanes_match_individual_spot_queries() {
        let n = chain(40);
        let p = Placement::new(&n);
        let prog = n.program().unwrap();
        let period = 1200.0;
        let mut batch = LaneStrikes::default();
        let samples: Vec<AttackSample> = p
            .placeable()
            .iter()
            .step_by(3)
            .enumerate()
            .map(|(i, &c)| AttackSample {
                t: 1 + i as i64,
                center: c,
                radius: (i % 4) as f64 * 0.9,
                phase: (i % 8) as u8,
            })
            .collect();
        for s in &samples {
            batch.push_sample(s, &p, prog, period);
        }
        assert_eq!(batch.lanes(), samples.len());
        for (l, s) in samples.iter().enumerate() {
            let want = RadiationSpot {
                center: s.center,
                radius: s.radius,
            }
            .impacted_cells(&p);
            assert_eq!(struck(&batch, prog, l), want, "lane {l}");
            assert_eq!(batch.strike_time_ps(l), s.strike_time_ps(period));
        }
    }

    #[test]
    fn clear_resets_lanes_but_reuses_storage() {
        let n = chain(20);
        let p = Placement::new(&n);
        let prog = n.program().unwrap();
        let mut batch = LaneStrikes::default();
        let s = AttackSample {
            t: 1,
            center: p.placeable()[5],
            radius: 2.0,
            phase: 0,
        };
        batch.push_sample(&s, &p, prog, 1000.0);
        let first = struck(&batch, prog, 0);
        batch.clear();
        assert_eq!(batch.lanes(), 0);
        batch.push_sample(&s, &p, prog, 1000.0);
        assert_eq!(struck(&batch, prog, 0), first);
    }

    #[test]
    fn secondary_spot_lane_is_the_sorted_deduped_union() {
        let n = chain(40);
        let p = Placement::new(&n);
        let prog = n.program().unwrap();
        let mut batch = LaneStrikes::default();
        let s = AttackSample {
            t: 2,
            center: p.placeable()[10],
            radius: 1.5,
            phase: 3,
        };
        // Overlapping secondary spot: the union must dedup the shared cells.
        let second = RadiationSpot {
            center: p.placeable()[12],
            radius: 1.5,
        };
        batch.push_sample_with(&s, Some(&second), &p, prog, 1000.0);
        let mut want = RadiationSpot {
            center: s.center,
            radius: s.radius,
        }
        .impacted_cells(&p);
        want.extend(second.impacted_cells(&p));
        want.sort_unstable();
        want.dedup();
        assert_eq!(struck(&batch, prog, 0), want);
        // A disjoint far-away secondary contributes its own cells.
        let far = RadiationSpot {
            center: p.placeable()[35],
            radius: 0.0,
        };
        batch.push_sample_with(&s, Some(&far), &p, prog, 1000.0);
        assert!(struck(&batch, prog, 1).contains(&p.placeable()[35]));
        // And `None` stays byte-identical to the single-spot path.
        batch.push_sample(&s, &p, prog, 1000.0);
        let solo = RadiationSpot {
            center: s.center,
            radius: s.radius,
        }
        .impacted_cells(&p);
        assert_eq!(struck(&batch, prog, 2), solo);
    }

    /// `cells` classified one cell at a time: the combinational nets, the
    /// registers' `dffs()` positions and the shallowest combinational level.
    fn per_cell(prog: &GateProgram, cells: &[GateId]) -> (Vec<u32>, Vec<u32>, u32) {
        let (mut comb, mut dffs, mut shallowest) = (Vec::new(), Vec::new(), u32::MAX);
        for &g in cells {
            match prog.net_class(g.index()) {
                NetClass::Comb => {
                    comb.push(g.0);
                    shallowest = shallowest.min(prog.level(g.index()));
                }
                NetClass::Dff => dffs.push(prog.dff_index(g.index()).unwrap() as u32),
                NetClass::Inert => {}
            }
        }
        (comb, dffs, shallowest)
    }

    /// The footprint cache is invisible: over many batches that revisit
    /// the same centers, every lane equals a fresh spot query (or the
    /// sorted, deduplicated union of two), for each radius, with and
    /// without a second spot, unplaced centers included; and each of its
    /// footprints carries the per-cell classification of its cells.
    #[test]
    fn cached_footprints_equal_fresh_queries() {
        let n = chain(40);
        let p = Placement::new(&n);
        let prog = n.program().unwrap();
        let fresh = |spot: &RadiationSpot| {
            let mut out = Vec::new();
            spot.impacted_cells_into(&p, &mut out);
            out
        };
        // Placed cells revisited across batches, plus an unplaced input.
        let mut centers: Vec<GateId> = p.placeable().iter().step_by(4).copied().collect();
        centers.push(n.inputs()[0]);
        let mut batch = LaneStrikes::default();
        for pass in 0..3 {
            for radius in [0.0, 1.0, 2.5] {
                for with_second in [false, true] {
                    batch.clear();
                    let mut want = Vec::new();
                    let mut secondaries = Vec::new();
                    for (i, &center) in centers.iter().enumerate() {
                        let s = AttackSample {
                            t: 1,
                            center,
                            radius,
                            phase: (i % 8) as u8,
                        };
                        let second = with_second.then(|| RadiationSpot {
                            center: centers[(i + pass + 1) % centers.len()],
                            radius: [2.5, 0.0, 1.0][i % 3],
                        });
                        batch.push_sample_with(&s, second.as_ref(), &p, prog, 1000.0);
                        secondaries.push(second);
                        let mut cells = fresh(&RadiationSpot { center, radius });
                        if let Some(extra) = &second {
                            cells.extend(fresh(extra));
                            cells.sort_unstable();
                            cells.dedup();
                        }
                        want.push(cells);
                    }
                    assert_eq!(batch.lanes(), want.len());
                    for (l, cells) in want.iter().enumerate() {
                        let ctx = format!("pass {pass} r {radius} second {with_second} lane {l}");
                        assert_eq!(struck(&batch, prog, l), *cells, "{ctx}");
                        let (primary, secondary) = batch.footprints(l);
                        let center = centers[l];
                        let spots = std::iter::once(RadiationSpot { center, radius });
                        assert_eq!(secondary.is_some(), with_second, "{ctx}");
                        let extra = secondaries[l];
                        for (fp, spot) in std::iter::once(primary)
                            .zip(spots)
                            .chain(secondary.zip(extra))
                        {
                            let (comb, dffs, shallowest) = per_cell(prog, &fresh(&spot));
                            assert_eq!(fp.comb_nets(), comb, "{ctx}");
                            assert_eq!(fp.dffs(), dffs, "{ctx}");
                            assert_eq!(fp.shallowest(), shallowest, "{ctx}");
                        }
                    }
                }
            }
        }
        // The unplaced center strikes nothing, cached or not.
        let last = centers.len() - 1;
        batch.clear();
        for _ in 0..2 {
            let s = AttackSample {
                t: 1,
                center: centers[last],
                radius: 2.5,
                phase: 0,
            };
            batch.push_sample(&s, &p, prog, 1000.0);
        }
        assert!(struck(&batch, prog, 0).is_empty() && struck(&batch, prog, 1).is_empty());
    }

    /// Ids are dense in order of first use, one per `(center, radius)`,
    /// and a lane pushed by id strikes what the sample would.
    #[test]
    fn spot_ids_are_dense_and_stable() {
        let n = chain(30);
        let p = Placement::new(&n);
        let prog = n.program().unwrap();
        let mut batch = LaneStrikes::default();
        let spot = |i: usize, radius: f64| RadiationSpot {
            center: p.placeable()[i],
            radius,
        };
        let mut want = Vec::new();
        for pass in 0..2 {
            for (k, (i, r)) in [(3, 0.0), (3, 1.5), (7, 0.0), (3, 0.0)]
                .into_iter()
                .enumerate()
            {
                let id = batch.spot_id(&spot(i, r), &p, prog);
                if pass == 0 && k < 3 {
                    assert_eq!(id as usize, k);
                    want.push(id);
                }
                assert_eq!(id, want[k % 3]);
            }
        }
        batch.push_lane(1, None, 250.0);
        let sample = AttackSample {
            t: 1,
            center: p.placeable()[3],
            radius: 1.5,
            phase: 0,
        };
        batch.push_sample(&sample, &p, prog, 4000.0);
        assert_eq!(struck(&batch, prog, 0), struck(&batch, prog, 1));
        assert_eq!(batch.strike_time_ps(0), 250.0);
        assert_eq!(
            batch.spot_id(&spot(7, 0.5), &p, prog),
            3,
            "the next new spot"
        );
    }

    #[test]
    fn empty_lane_from_unplaced_center() {
        let n = chain(10);
        let p = Placement::new(&n);
        let prog = n.program().unwrap();
        let mut batch = LaneStrikes::default();
        // Input markers are unplaced: the spot query is empty.
        let s = AttackSample {
            t: 1,
            center: n.inputs()[0],
            radius: 5.0,
            phase: 0,
        };
        batch.push_sample(&s, &p, prog, 1000.0);
        assert!(struck(&batch, prog, 0).is_empty());
    }
}
