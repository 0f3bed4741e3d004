//! Bit-flip correlation between cone cells and the responding signal
//! (pre-characterization step 2, Observation 2).
//!
//! The golden run of the synthetic benchmark records the per-cycle values
//! of every MPU register and primary input; a single bit-parallel sweep
//! derives the value trace of every combinational node, and switching
//! signatures plus the frame-aligned correlation `Corr_i(g, rs)` follow
//! with word-wide AND/popcount — the paper's "fast bit-parallel
//! calculation".

use crate::model::SystemModel;
use crate::space::SampleSpace;
use xlmc_gatesim::signature::{aligned_correlation, SwitchingSignature};
use xlmc_netlist::GateId;
use xlmc_soc::golden::GoldenRun;

/// Frame-aligned bit-flip correlations for every sample-space cell.
#[derive(Debug, Clone)]
pub struct CorrelationData {
    /// One entry per sample-space frame, ascending by frame index (the
    /// space's frames ascend by `t`).
    frames: Vec<FrameCorrelation>,
    cycles: usize,
}

/// The correlations of one frame, aligned with its sorted cells.
#[derive(Debug, Clone)]
struct FrameCorrelation {
    frame: i32,
    cells: Vec<GateId>,
    corr: Vec<f64>,
}

impl CorrelationData {
    /// Compute correlations over the synthetic golden run for every
    /// `(cell, frame)` pair of the sample space.
    ///
    /// # Panics
    ///
    /// Panics when the golden run is empty.
    pub fn compute(model: &SystemModel, synthetic: &GoldenRun, space: &SampleSpace) -> Self {
        let cycles = synthetic.cycles as usize;
        assert!(cycles > 0, "empty golden run");

        let traces = model.golden_traces(synthetic, 0..cycles);
        let rs = model.mpu.responding_signal();
        let rs_ss = SwitchingSignature::from_traces(&traces, rs);

        // Align the responding signal once per frame; keep each cell's
        // signature and weight in a `GateId`-indexed table.
        let mut cell_ss: Vec<Option<(SwitchingSignature, u32)>> =
            vec![None; model.mpu.netlist().len()];
        let frames = space
            .frames()
            .iter()
            .map(|frame_info| {
                let rs_aligned = rs_ss.aligned(frame_info.frame);
                let corr = frame_info
                    .cells
                    .iter()
                    .map(|&g| {
                        let (ss, weight) = cell_ss[g.index()].get_or_insert_with(|| {
                            let ss = SwitchingSignature::from_traces(&traces, g);
                            let weight = ss.weight();
                            (ss, weight)
                        });
                        aligned_correlation(ss, *weight, &rs_aligned)
                    })
                    .collect();
                FrameCorrelation {
                    frame: frame_info.frame,
                    cells: frame_info.cells.clone(),
                    corr,
                }
            })
            .collect();
        Self { frames, cycles }
    }

    /// `Corr_i(g, rs)`, 0 when the pair was not in the sample space.
    pub fn corr(&self, g: GateId, frame: i32) -> f64 {
        self.frame(frame).map_or(0.0, |f| {
            f.cells.binary_search(&g).map_or(0.0, |i| f.corr[i])
        })
    }

    /// [`CorrelationData::corr`] for each of `cells` (sorted ascending) in
    /// `frame`: one merge with the frame's stored cells instead of a search
    /// per cell.
    pub(crate) fn corr_sorted(&self, frame: i32, cells: &[GateId]) -> Vec<f64> {
        let Some(f) = self.frame(frame) else {
            return vec![0.0; cells.len()];
        };
        let mut k = 0;
        cells
            .iter()
            .map(|&g| {
                while k < f.cells.len() && f.cells[k] < g {
                    k += 1;
                }
                match f.cells.get(k) {
                    Some(&h) if h == g => f.corr[k],
                    _ => 0.0,
                }
            })
            .collect()
    }

    fn frame(&self, frame: i32) -> Option<&FrameCorrelation> {
        let i = self.frames.binary_search_by_key(&frame, |f| f.frame).ok()?;
        Some(&self.frames[i])
    }

    /// Number of simulated cycles the correlations are based on.
    pub fn cycles(&self) -> usize {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlmc_gatesim::signature::correlation;
    use xlmc_soc::{workloads, MpuBit};

    fn setup() -> (SystemModel, GoldenRun, SampleSpace) {
        let model = SystemModel::with_defaults().unwrap();
        let synth = workloads::synthetic_precharacterization();
        let golden = GoldenRun::record(&synth.program, 20_000, 64);
        let space = SampleSpace::build(&model, 8, 0.0);
        (model, golden, space)
    }

    #[test]
    fn correlations_are_probabilities() {
        let (model, golden, space) = setup();
        let data = CorrelationData::compute(&model, &golden, &space);
        for f in space.frames() {
            for &g in &f.cells {
                let c = data.corr(g, f.frame);
                assert!((0.0..=1.0).contains(&c), "corr({g}, {}) = {c}", f.frame);
            }
        }
    }

    #[test]
    fn responding_signal_correlates_perfectly_with_itself() {
        let (model, golden, space) = setup();
        let data = CorrelationData::compute(&model, &golden, &space);
        let rs = model.mpu.responding_signal();
        // rs is in frame 0 of its own cone; the synthetic run must toggle it.
        let c = data.corr(rs, 0);
        assert!((c - 1.0).abs() < 1e-12, "Corr_0(rs, rs) = {c}");
    }

    #[test]
    fn some_cone_cells_correlate_more_than_others() {
        let (model, golden, space) = setup();
        let data = CorrelationData::compute(&model, &golden, &space);
        let f0 = space.frame_for(1).unwrap();
        let corrs: Vec<f64> = f0.cells.iter().map(|&g| data.corr(g, 0)).collect();
        let max = corrs.iter().cloned().fold(0.0, f64::max);
        let min = corrs.iter().cloned().fold(1.0, f64::min);
        assert!(max > 0.2, "max corr {max} too low — stimulus too quiet");
        assert!(max - min > 0.1, "correlations should discriminate cells");
    }

    #[test]
    fn every_pair_equals_the_direct_correlation() {
        let model = SystemModel::with_defaults().unwrap();
        let synth = workloads::synthetic_precharacterization();
        let golden = GoldenRun::record(&synth.program, 20_000, 64);
        for (t_max, halo) in [(8, 0.0), (50, 1.0)] {
            let space = SampleSpace::build(&model, t_max, halo);
            let data = CorrelationData::compute(&model, &golden, &space);
            let traces = model.golden_traces(&golden, 0..golden.cycles as usize);
            let rs_ss = SwitchingSignature::from_traces(&traces, model.mpu.responding_signal());
            for f in space.frames() {
                for &g in &f.cells {
                    let ss = SwitchingSignature::from_traces(&traces, g);
                    let direct = correlation(&ss, &rs_ss, f.frame);
                    assert_eq!(
                        data.corr(g, f.frame).to_bits(),
                        direct.to_bits(),
                        "({g}, {}) at t_max {t_max}, halo {halo}",
                        f.frame
                    );
                }
            }
        }
    }

    #[test]
    fn sorted_lookups_equal_single_lookups() {
        let (model, golden, space) = setup();
        let data = CorrelationData::compute(&model, &golden, &space);
        let all = space.all_cells();
        for frame in [-1, 0, 1, 7, 8] {
            let got = data.corr_sorted(frame, &all);
            for (&g, c) in all.iter().zip(got) {
                assert_eq!(c.to_bits(), data.corr(g, frame).to_bits(), "({g}, {frame})");
            }
        }
    }

    #[test]
    fn unknown_pairs_report_zero() {
        let (model, golden, space) = setup();
        let data = CorrelationData::compute(&model, &golden, &space);
        let sticky = model.mpu.dff(MpuBit::StickyViol);
        assert_eq!(data.corr(sticky, 0), 0.0);
        assert_eq!(data.cycles() as u64, golden.cycles);
    }
}
