//! Packed strike construction: cached spot footprints, CSR storage.
//!
//! The compiled campaign kernel needs each lane's impacted-cell list alive
//! at the same time. Building 256 separate `Vec`s per sweep would put the
//! allocator back on the hot path, so the lanes share one flat CSR buffer:
//! lane `l`'s cells are `cells[offsets[l] .. offsets[l + 1]]`, and the
//! whole structure is reused sweep after sweep.
//!
//! A campaign strikes the same few `(center, radius)` spots over and over,
//! so each spot's footprint is queried once and kept: per distinct radius,
//! one `(start, len)` slot per center index into a second flat buffer.

use xlmc_netlist::{GateId, Placement};

use crate::sample::AttackSample;
use crate::spot::RadiationSpot;

/// Marks a footprint slot that has not been queried yet.
const UNFILLED: (u32, u32) = (u32::MAX, 0);

/// The struck-cell lists of one lane batch, CSR layout, reusable.
///
/// The footprint cache makes an instance valid against **one placement**:
/// keep one per worker and campaign, never move it to another model.
#[derive(Debug, Clone, Default)]
pub struct LaneStrikes {
    offsets: Vec<u32>,
    cells: Vec<GateId>,
    times: Vec<f64>,
    query: Vec<GateId>,
    /// Per distinct radius (by its bits), the footprint slot of each center
    /// index: a `(start, len)` range of `footprint_cells`.
    footprints: Vec<(u64, Vec<(u32, u32)>)>,
    footprint_cells: Vec<GateId>,
}

impl LaneStrikes {
    /// Drop all lanes (keeps capacity and the footprint cache).
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.cells.clear();
        self.times.clear();
    }

    /// Number of lanes recorded.
    pub fn lanes(&self) -> usize {
        self.times.len()
    }

    /// Append one lane: the spot query of `sample` against `placement`
    /// plus the sample's intra-cycle strike moment.
    pub fn push_sample(
        &mut self,
        sample: &AttackSample,
        placement: &Placement,
        clock_period_ps: f64,
    ) {
        self.push_sample_with(sample, None, placement, clock_period_ps);
    }

    /// [`LaneStrikes::push_sample`] with an optional secondary spot (the
    /// double-glitch mode): the lane's cell list is the sorted, deduplicated
    /// union of both spot queries — exactly what the scalar path produces
    /// when it merges the second spot into its struck buffer.
    pub fn push_sample_with(
        &mut self,
        sample: &AttackSample,
        second: Option<&RadiationSpot>,
        placement: &Placement,
        clock_period_ps: f64,
    ) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let spot = RadiationSpot {
            center: sample.center,
            radius: sample.radius,
        };
        let (lo, len) = self.footprint(&spot, placement);
        let primary = lo as usize..(lo + len) as usize;
        match second {
            None => self.cells.extend_from_slice(&self.footprint_cells[primary]),
            Some(extra) => {
                let (lo2, len2) = self.footprint(extra, placement);
                let secondary = lo2 as usize..(lo2 + len2) as usize;
                merge_union(
                    &self.footprint_cells[primary],
                    &self.footprint_cells[secondary],
                    &mut self.cells,
                );
            }
        }
        self.offsets.push(self.cells.len() as u32);
        self.times.push(sample.strike_time_ps(clock_period_ps));
    }

    /// The cached footprint slot of `spot`, filled from
    /// [`RadiationSpot::impacted_cells_into`] on first use (so it is
    /// sorted, like every fresh query).
    fn footprint(&mut self, spot: &RadiationSpot, placement: &Placement) -> (u32, u32) {
        let bits = spot.radius.to_bits();
        let k = match self.footprints.iter().position(|(b, _)| *b == bits) {
            Some(k) => k,
            None => {
                self.footprints.push((bits, Vec::new()));
                self.footprints.len() - 1
            }
        };
        let slots = &mut self.footprints[k].1;
        let c = spot.center.index();
        if c >= slots.len() {
            slots.resize(c + 1, UNFILLED);
        }
        if slots[c] == UNFILLED {
            spot.impacted_cells_into(placement, &mut self.query);
            slots[c] = (self.footprint_cells.len() as u32, self.query.len() as u32);
            self.footprint_cells.extend_from_slice(&self.query);
        }
        slots[c]
    }

    /// Lane `l`'s struck cells.
    pub fn struck(&self, lane: usize) -> &[GateId] {
        let lo = self.offsets[lane] as usize;
        let hi = self.offsets[lane + 1] as usize;
        &self.cells[lo..hi]
    }

    /// Lane `l`'s strike moment within the cycle, in picoseconds.
    pub fn strike_time_ps(&self, lane: usize) -> f64 {
        self.times[lane]
    }
}

/// Append the union of the sorted lists `a` and `b` to `out`, sorted and
/// deduplicated: one linear merge in place of concatenate, sort, dedup.
fn merge_union(a: &[GateId], b: &[GateId], out: &mut Vec<GateId>) {
    let start = out.len();
    let (mut i, mut j) = (0, 0);
    loop {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x <= y => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, None) => break,
        };
        if out.len() == start || out[out.len() - 1] != next {
            out.push(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlmc_netlist::{CellKind, Netlist};

    proptest::proptest! {
        /// The linear merge appends exactly what concatenate, sort and
        /// dedup produced, for random sorted footprint pairs (overlapping,
        /// disjoint, empty, with repeats) behind an existing prefix.
        #[test]
        fn merge_union_is_sort_and_dedup_of_the_concatenation(
            a in proptest::collection::vec(0u32..64, 0..24),
            b in proptest::collection::vec(0u32..64, 0..24),
            prefix in proptest::collection::vec(0u32..64, 0..3),
        ) {
            let sorted = |v: &[u32]| {
                let mut v: Vec<GateId> = v.iter().map(|&g| GateId(g)).collect();
                v.sort_unstable();
                v
            };
            let (a, b, prefix) = (sorted(&a), sorted(&b), sorted(&prefix));
            let mut query = a.clone();
            query.extend_from_slice(&b);
            query.sort_unstable();
            query.dedup();
            let mut want = prefix.clone();
            want.extend_from_slice(&query);
            let mut got = prefix.clone();
            merge_union(&a, &b, &mut got);
            proptest::prop_assert_eq!(got, want);
        }
    }

    fn chain(cells: usize) -> Netlist {
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
    fn lanes_match_individual_spot_queries() {
        let n = chain(40);
        let p = Placement::new(&n);
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
            batch.push_sample(s, &p, period);
        }
        assert_eq!(batch.lanes(), samples.len());
        for (l, s) in samples.iter().enumerate() {
            let want = RadiationSpot {
                center: s.center,
                radius: s.radius,
            }
            .impacted_cells(&p);
            assert_eq!(batch.struck(l), &want[..], "lane {l}");
            assert_eq!(batch.strike_time_ps(l), s.strike_time_ps(period));
        }
    }

    #[test]
    fn clear_resets_lanes_but_reuses_storage() {
        let n = chain(20);
        let p = Placement::new(&n);
        let mut batch = LaneStrikes::default();
        let s = AttackSample {
            t: 1,
            center: p.placeable()[5],
            radius: 2.0,
            phase: 0,
        };
        batch.push_sample(&s, &p, 1000.0);
        let first = batch.struck(0).to_vec();
        batch.clear();
        assert_eq!(batch.lanes(), 0);
        batch.push_sample(&s, &p, 1000.0);
        assert_eq!(batch.struck(0), &first[..]);
    }

    #[test]
    fn secondary_spot_lane_is_the_sorted_deduped_union() {
        let n = chain(40);
        let p = Placement::new(&n);
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
        batch.push_sample_with(&s, Some(&second), &p, 1000.0);
        let mut want = RadiationSpot {
            center: s.center,
            radius: s.radius,
        }
        .impacted_cells(&p);
        want.extend(second.impacted_cells(&p));
        want.sort_unstable();
        want.dedup();
        assert_eq!(batch.struck(0), &want[..]);
        // A disjoint far-away secondary contributes its own cells.
        let far = RadiationSpot {
            center: p.placeable()[35],
            radius: 0.0,
        };
        batch.push_sample_with(&s, Some(&far), &p, 1000.0);
        assert!(batch.struck(1).contains(&p.placeable()[35]));
        // And `None` stays byte-identical to the single-spot path.
        batch.push_sample(&s, &p, 1000.0);
        let solo = RadiationSpot {
            center: s.center,
            radius: s.radius,
        }
        .impacted_cells(&p);
        assert_eq!(batch.struck(2), &solo[..]);
    }

    /// The footprint cache is invisible: over many batches that revisit
    /// the same centers, every lane equals a fresh spot query (or the
    /// sorted, deduplicated union of two), for each radius, with and
    /// without a second spot, unplaced centers included.
    #[test]
    fn cached_footprints_equal_fresh_queries() {
        let n = chain(40);
        let p = Placement::new(&n);
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
                        batch.push_sample_with(&s, second.as_ref(), &p, 1000.0);
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
                        assert_eq!(batch.struck(l), &cells[..], "{ctx}");
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
            batch.push_sample(&s, &p, 1000.0);
        }
        assert!(batch.struck(0).is_empty() && batch.struck(1).is_empty());
    }

    #[test]
    fn empty_lane_from_unplaced_center() {
        let n = chain(10);
        let p = Placement::new(&n);
        let mut batch = LaneStrikes::default();
        // Input markers are unplaced: the spot query is empty.
        let s = AttackSample {
            t: 1,
            center: n.inputs()[0],
            radius: 5.0,
            phase: 0,
        };
        batch.push_sample(&s, &p, 1000.0);
        assert!(batch.struck(0).is_empty());
    }
}
