//! Sampling strategies: random, fanin-cone, and the paper's importance
//! sampling distribution `g_{T,P} = g_T · g_{P|T}` (§4).
//!
//! Every strategy draws attack samples and reports the importance weight
//! `f(s) / g(s)` against the attacker distribution `f_{T,P}`, so the
//! estimator `ŜSF = (1/N) Σ w_i · e_i` stays unbiased. The importance
//! distribution follows the paper exactly:
//!
//! ```text
//! g_T(t = i)        ∝ ω_i = Σ_{g ∈ Ω_i} (1 + α · Corr_i(g, rs) · δ(L(g) ≥ β·i))
//! g_{P|T}(g, r | i) ∝ (1 + α · Corr_i(g, rs) · δ(L(g) ≥ β·i)) · Unif(r)
//! ```
//!
//! with `Ω_i` the sample-space cells of timing distance `t` (unrolled frame
//! `i = t − 1`), `Corr_i` the bit-flip correlation and `L(g)` the error
//! lifetime from the pre-characterization.

use crate::model::SystemModel;
use crate::precharacterize::Precharacterization;
use crate::rng::SplitMix64;
use rand::Rng;
use std::ops::Range;
use xlmc_fault::sample::PHASE_BINS;
use xlmc_fault::{AttackDistribution, AttackSample, RadiusDist, SpatialDist, TemporalDist};
use xlmc_netlist::GateId;

/// Parameters of the evaluation experiments (paper §6 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Timing-distance range: `t ∈ [1, t_max]` ("the range of t is 50
    /// cycles").
    pub t_max: i64,
    /// Discrete radius options of the radiated spot.
    pub radius_options: Vec<f64>,
    /// Correlation amplification `α` of the sampling distribution.
    pub alpha: f64,
    /// Lifetime threshold slope `β` of the sampling distribution.
    pub beta: f64,
    /// Fraction of the MPU cells in the attacker's target sub-block ("a
    /// sub-block of gates of around 1/8 of MPU").
    pub subblock_fraction: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            t_max: 50,
            radius_options: vec![0.0, 1.0],
            alpha: 40.0,
            beta: 1.0,
            subblock_fraction: 0.125,
        }
    }
}

impl ExperimentConfig {
    /// The largest radius option (drives the sample-space halo).
    pub fn max_radius(&self) -> f64 {
        self.radius_options.iter().cloned().fold(0.0, f64::max)
    }
}

/// The attacker's target sub-block: the `fraction` of placed cells closest
/// to the centroid of the security-critical block (the fanin cone of the
/// responding signal) — the paper's "sub-block of gates of around 1/8 of
/// MPU identified following \[18\]". Centering on the cone centroid reflects
/// the attack model: the attacker knows the physical implementation and
/// aims at the protection logic, which spans the configuration bank, the
/// comparators and the responding-signal register.
pub fn subblock_cells(model: &SystemModel, fraction: f64) -> Vec<GateId> {
    let rs = model.mpu.responding_signal();
    let cone = xlmc_netlist::cones::cone_set(model.mpu.netlist(), rs, 0, 1);
    let mut cx = 0.0;
    let mut cy = 0.0;
    let mut count = 0usize;
    for (_, frame) in cone.iter() {
        for &g in frame.iter() {
            if let Some(p) = model.placement.position(g) {
                cx += p.x;
                cy += p.y;
                count += 1;
            }
        }
    }
    assert!(count > 0, "responding-signal cone has no placed cells");
    let center = xlmc_netlist::Point {
        x: cx / count as f64,
        y: cy / count as f64,
    };
    let mut cells: Vec<(f64, GateId)> = model
        .placement
        .placeable()
        .iter()
        .map(|&g| {
            let p = model.placement.position(g).expect("placeable cell");
            (p.distance(center), g)
        })
        .collect();
    cells.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let take = ((cells.len() as f64 * fraction).ceil() as usize).clamp(1, cells.len());
    let mut out: Vec<GateId> = cells.into_iter().take(take).map(|(_, g)| g).collect();
    out.sort_unstable();
    out
}

/// The attacker distribution `f_{T,P}` of the experiments: uniform timing
/// distance, uniform center over the sub-block, uniform radius.
pub fn baseline_distribution(model: &SystemModel, cfg: &ExperimentConfig) -> AttackDistribution {
    AttackDistribution {
        temporal: TemporalDist::uniform(1, cfg.t_max),
        spatial: SpatialDist::UniformOverCells(subblock_cells(model, cfg.subblock_fraction)),
        radius: RadiusDist::uniform(cfg.radius_options.clone()),
    }
}

/// The sorted spatial support of the attacker distribution: the strategies
/// restrict their proposals to it. Proposing cells the attacker cannot
/// target wastes samples (`f = 0` forces `w = 0`) and starves the overlap
/// region, which is exactly the importance-sampling failure mode.
fn spatial_support(f: &AttackDistribution) -> Vec<GateId> {
    let mut cells = match &f.spatial {
        SpatialDist::UniformOverCells(cells) => cells.clone(),
        SpatialDist::Delta(g) => vec![*g],
    };
    cells.sort_unstable();
    cells
}

/// One campaign run's draw: its sample, the sample's importance weight,
/// and the run's [`SplitMix64::for_run`] stream just past the draw, which
/// the run's later draws (the second glitch spot, the hardening filter)
/// continue.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDraw {
    /// The drawn attack sample.
    pub sample: AttackSample,
    /// Its importance weight `f(s) / g(s)`.
    pub w: f64,
    /// The run's generator after the draw.
    pub rng: SplitMix64,
}

/// A sampling strategy: draws attack samples and reports importance
/// weights against the attacker distribution.
///
/// `Send + Sync` so the campaign engine can share one strategy across its
/// worker threads; strategies are immutable once built, so every
/// implementation in this crate satisfies the bound structurally.
pub trait SamplingStrategy: Send + Sync {
    /// Human-readable strategy name for reports.
    fn name(&self) -> &'static str;
    /// Draw one sample from the strategy's distribution `g`.
    fn draw(&self, rng: &mut dyn rand::RngCore) -> AttackSample;
    /// The importance weight `f(s) / g(s)` of a drawn sample.
    fn weight(&self, sample: &AttackSample) -> f64;
    /// Draw campaign runs `runs` of a campaign seeded `seed` into `out`
    /// (cleared first), run `i` on the stream `SplitMix64::for_run(seed,
    /// i)`: the one draw entry point of every campaign path. Run by run it
    /// is [`draw`](Self::draw) then [`weight`](Self::weight), bit for bit,
    /// with the stream left at the same position; strategies override it to
    /// draw the chunk in stages.
    fn draw_chunk(&self, seed: u64, runs: Range<u64>, out: &mut Vec<RunDraw>) {
        out.clear();
        out.extend(runs.map(|i| {
            let mut rng = SplitMix64::for_run(seed, i);
            let sample = self.draw(&mut rng);
            let w = self.weight(&sample);
            RunDraw { sample, w, rng }
        }));
    }
}

/// Campaign run `run_index` of a campaign seeded `seed`, drawn alone: the
/// one-run range of [`SamplingStrategy::draw_chunk`], for solo replays.
pub fn draw_run(strategy: &dyn SamplingStrategy, seed: u64, run_index: u64) -> RunDraw {
    let mut out = Vec::with_capacity(1);
    strategy.draw_chunk(seed, run_index..run_index + 1, &mut out);
    out.pop().expect("a one-run range draws one run")
}

/// Plain Monte Carlo: sample the attacker distribution itself.
#[derive(Debug, Clone)]
pub struct RandomSampling {
    f: AttackDistribution,
}

impl RandomSampling {
    /// Sample straight from `f_{T,P}`.
    pub fn new(f: AttackDistribution) -> Self {
        Self { f }
    }
}

impl SamplingStrategy for RandomSampling {
    fn name(&self) -> &'static str {
        "random"
    }

    fn draw(&self, rng: &mut dyn rand::RngCore) -> AttackSample {
        // Re-borrow as a sized `&mut dyn RngCore` so the generic sampler
        // can take it by `impl Rng`.
        let mut rng = rng;
        self.f.sample(&mut rng)
    }

    fn weight(&self, _sample: &AttackSample) -> f64 {
        1.0
    }

    fn draw_chunk(&self, seed: u64, runs: Range<u64>, out: &mut Vec<RunDraw>) {
        out.clear();
        out.extend(runs.map(|i| {
            let mut rng = SplitMix64::for_run(seed, i);
            let sample = self.f.sample(&mut rng);
            RunDraw {
                sample,
                w: 1.0,
                rng,
            }
        }));
    }
}

/// One timing distance of a cone-restricted strategy, as its builder
/// hands it to [`FramedStrategy::new`].
#[derive(Debug, Clone)]
struct Frame {
    t: i64,
    /// Sorted candidate cells.
    cells: Vec<GateId>,
    /// Per-cell weights aligned with `cells` (uniform strategies use 1.0).
    weights: Vec<f64>,
    /// Cumulative weights for sampling.
    cum: Vec<f64>,
    total: f64,
}

impl Frame {
    fn uniform(t: i64, mut cells: Vec<GateId>) -> Self {
        cells.sort_unstable();
        let weights = vec![1.0; cells.len()];
        Self::from_weights(t, cells, weights)
    }

    fn from_weights(cells_t: i64, cells: Vec<GateId>, weights: Vec<f64>) -> Self {
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cum.push(acc);
        }
        Self {
            t: cells_t,
            cells,
            weights,
            cum,
            total: acc,
        }
    }
}

/// A guide table over a non-decreasing cumulative table `cum`: the draw's
/// `partition_point(|&c| c <= x)` without a binary search.
///
/// `x` falls in bucket `⌊x · scale⌋` (clamped to the last), and `start[b]`
/// counts the entries of `cum` whose own bucket is below `b`. Every such
/// entry is below any `x` of bucket `b`, because the bucket map is
/// non-decreasing in `x`; so `start[b]` never passes the answer, and a
/// forward scan from it while `cum[i] <= x` stops exactly at the answer,
/// after at most the entries of bucket `b`. The scan compares the same
/// `f64` values the binary search did, so the index is the same for every
/// `x`, rounding included. With two buckets per entry, most buckets hold
/// at most one entry: the first step of the scan is a branch-free
/// increment, and the loop after it rarely runs.
#[derive(Debug, Clone)]
struct Guide {
    scale: f64,
    start: Vec<u16>,
}

impl Guide {
    /// Buckets per entry of the table.
    const BUCKETS_PER_ENTRY: usize = 2;

    /// The guide of `cum`, whose last entry is its total.
    fn new(cum: &[f64]) -> Self {
        assert!(
            cum.windows(2).all(|w| w[0] <= w[1]),
            "cumulative weights must be non-decreasing"
        );
        let total = cum.last().copied().unwrap_or(0.0);
        let buckets = (cum.len() * Self::BUCKETS_PER_ENTRY).max(1);
        let mut guide = Self {
            scale: buckets as f64 / total,
            start: vec![0; buckets],
        };
        // The bucket map is non-decreasing along `cum`: one merge pass.
        let mut below = 0;
        for b in 0..buckets {
            while below < cum.len() && guide.bucket(cum[below]) < b {
                below += 1;
            }
            guide.start[b] = u16::try_from(below).expect("at most 65,535 entries per table");
        }
        guide
    }

    #[inline]
    fn bucket(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.start.len() - 1)
    }

    /// `cum.partition_point(|&c| c <= x).min(cum.len() - 1)`, for the
    /// `cum` the guide was built over.
    #[inline]
    fn find(&self, cum: &[f64], x: f64) -> usize {
        // A `start` past the last entry (all weights zero) answers the
        // last entry, like the binary search.
        let mut i = usize::from(self.start[self.bucket(x)]).min(cum.len() - 1);
        i += usize::from(cum[i] <= x);
        while i < cum.len() && cum[i] <= x {
            i += 1;
        }
        i.min(cum.len() - 1)
    }
}

/// The cells of a frame with everything the draw and the weight read of
/// them. Frames whose tables are bit-equal share one: the deep frames of
/// the sample space hold the same cells, and their weights repeat once
/// every lifetime threshold is passed.
#[derive(Debug, Clone)]
struct Table {
    /// Sorted candidate cells.
    cells: Vec<GateId>,
    /// `w / grand_total` per cell, in place of the raw weight `w`: the
    /// first operation of `g(s)`, done once.
    mass: Vec<f64>,
    /// Cumulative raw weights.
    cum: Vec<f64>,
    /// The last entry of `cum`: the frame's total weight.
    total: f64,
    guide: Guide,
}

/// Runs per block of [`FramedStrategy::draw_chunk`]'s passes: enough
/// independent lookups per pass to keep the loads overlapped, with the
/// stage buffers on the stack.
const DRAW_STAGE: usize = 64;

/// The sample of a [`RunDraw`] between the staged draw's passes.
const UNDRAWN: AttackSample = AttackSample {
    t: 0,
    center: GateId(0),
    radius: 0.0,
    phase: 0,
};

/// Shared machinery of the cone-restricted strategies.
#[derive(Debug, Clone)]
struct FramedStrategy {
    f: AttackDistribution,
    /// Sorted copy of `f`'s spatial support: the per-run weight path needs
    /// `f`'s center mass, and [`SpatialDist::pmf`] is a linear scan over
    /// the sub-block — a binary search here keeps `weight` O(log n).
    f_support: Vec<GateId>,
    /// `(t, index into tables)` per frame, ascending by `t` (asserted in
    /// [`FramedStrategy::new`]).
    frames: Vec<(i64, usize)>,
    tables: Vec<Table>,
    frame_cum: Vec<f64>,
    frame_guide: Guide,
    grand_total: f64,
    radius: RadiusDist,
    /// `g_R(r)` per radius option, indexed like `radius.options()`.
    g_radius: Vec<f64>,
    /// Per (frame, radius option), at `frame * options + option`, the
    /// weight's numerator `f(s) = f_T(t) · f_P(center) · f_R(r) /
    /// PHASE_BINS` when every cell of the frame lies in `f`'s support (the
    /// center mass is then the same for all of them); `None` sends the
    /// frame's draws to [`FramedStrategy::weight`].
    f_mass: Vec<Option<f64>>,
}

impl FramedStrategy {
    fn new(f: AttackDistribution, frames: Vec<Frame>, radius: RadiusDist) -> Self {
        let mut frame_cum = Vec::with_capacity(frames.len());
        let mut acc = 0.0;
        for fr in &frames {
            acc += fr.total;
            frame_cum.push(acc);
        }
        assert!(
            acc > 0.0,
            "strategy support is empty: the cones do not intersect the attacker's sub-block"
        );
        assert!(
            frames.windows(2).all(|w| w[0].t < w[1].t),
            "frames must be ascending by t"
        );
        let grand_total = acc;
        let f_support = spatial_support(&f);
        let center_mass = match &f.spatial {
            SpatialDist::UniformOverCells(cells) => 1.0 / cells.len() as f64,
            SpatialDist::Delta(_) => 1.0,
        };
        let bins = f64::from(PHASE_BINS);
        let f_radius: Vec<f64> = radius.options().iter().map(|&r| f.radius.pmf(r)).collect();
        let f_mass = frames
            .iter()
            .flat_map(|fr| {
                let on_support = fr.cells.iter().all(|g| f_support.binary_search(g).is_ok());
                let mass = on_support.then(|| f.temporal.pmf(fr.t) * center_mass);
                f_radius.iter().map(move |&fr| mass.map(|m| m * fr / bins))
            })
            .collect();
        let g_radius = radius.options().iter().map(|&r| radius.pmf(r)).collect();
        let mut tables: Vec<Table> = Vec::new();
        let frames = frames
            .into_iter()
            .map(|fr| {
                let mut mass = fr.weights;
                for w in &mut mass {
                    *w /= grand_total;
                }
                let bit_eq = |a: &[f64], b: &[f64]| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                };
                let same = |t: &Table| {
                    t.total.to_bits() == fr.total.to_bits()
                        && t.cells == fr.cells
                        && bit_eq(&t.cum, &fr.cum)
                        && bit_eq(&t.mass, &mass)
                };
                let table = tables.iter().position(same).unwrap_or_else(|| {
                    tables.push(Table {
                        guide: Guide::new(&fr.cum),
                        cells: fr.cells,
                        mass,
                        cum: fr.cum,
                        total: fr.total,
                    });
                    tables.len() - 1
                });
                (fr.t, table)
            })
            .collect();
        Self {
            frame_guide: Guide::new(&frame_cum),
            f,
            f_support,
            frames,
            tables,
            frame_cum,
            grand_total,
            radius,
            g_radius,
            f_mass,
        }
    }

    /// `f_{T,P}(s)`, bit-identical to [`AttackDistribution::pmf`] but with
    /// the spatial mass answered by the sorted support copy.
    fn f_pmf(&self, s: &AttackSample) -> f64 {
        if s.phase >= PHASE_BINS {
            return 0.0;
        }
        let spatial = if self.f_support.binary_search(&s.center).is_ok() {
            match &self.f.spatial {
                SpatialDist::UniformOverCells(cells) => 1.0 / cells.len() as f64,
                SpatialDist::Delta(_) => 1.0,
            }
        } else {
            0.0
        };
        self.f.temporal.pmf(s.t) * spatial * self.f.radius.pmf(s.radius) / f64::from(PHASE_BINS)
    }

    /// `g(s)` of the strategy.
    fn pmf(&self, s: &AttackSample) -> f64 {
        let Ok(idx) = self.frames.binary_search_by_key(&s.t, |&(t, _)| t) else {
            return 0.0;
        };
        let table = &self.tables[self.frames[idx].1];
        let Ok(ci) = table.cells.binary_search(&s.center) else {
            return 0.0;
        };
        if s.phase >= PHASE_BINS {
            return 0.0;
        }
        table.mass[ci] * self.radius.pmf(s.radius) / f64::from(PHASE_BINS)
    }

    /// The frame a frame variate in `[0, grand_total)` falls in.
    #[inline]
    fn frame_of(&self, x: f64) -> usize {
        self.frame_guide.find(&self.frame_cum, x)
    }

    /// A cell variate of frame `fi`, in `[0, total)` of its table.
    #[inline]
    fn cell_variate<R: Rng>(&self, fi: usize, rng: &mut R) -> f64 {
        rng.gen_range(0.0..self.tables[self.frames[fi].1].total)
    }

    /// One draw off `rng`, which gives, in order: the frame variate, the
    /// cell variate, the radius and the phase.
    fn draw(&self, mut rng: &mut dyn rand::RngCore) -> AttackSample {
        let rng = &mut rng;
        let fi = self.frame_of(rng.gen_range(0.0..self.grand_total));
        let x = self.cell_variate(fi, rng);
        let (t, table) = self.frames[fi];
        let table = &self.tables[table];
        let ci = table.guide.find(&table.cum, x);
        let ri = self.radius.sample_index(rng);
        AttackSample {
            t,
            center: table.cells[ci],
            radius: self.radius.options()[ri],
            phase: rng.gen_range(0..PHASE_BINS),
        }
    }

    /// The staged chunk draw. A draw is a chain of dependent loads, the
    /// frame's guide bucket and cumulative weights and then the cell's,
    /// each fed by the run's stream. Drawn run after run, one run's chain
    /// waits on the last one's branches. So the chunk is drawn in blocks
    /// of [`DRAW_STAGE`] runs, in three passes per block: each run's
    /// stream and frame variate; each frame lookup and cell variate; each
    /// cell lookup, radius, phase and weight. The lookups of a pass are
    /// independent, so their loads overlap. Each run carries its own
    /// stream from pass to pass and takes the words `draw` takes, in the
    /// same order.
    fn draw_chunk(&self, seed: u64, runs: Range<u64>, out: &mut Vec<RunDraw>) {
        out.clear();
        out.reserve((runs.end - runs.start) as usize);
        let mut x = [0.0; DRAW_STAGE];
        let mut frame = [0u32; DRAW_STAGE];
        let mut at = runs.start;
        while at < runs.end {
            let block = at..runs.end.min(at + DRAW_STAGE as u64);
            at = block.end;
            let base = out.len();
            for (x, i) in x.iter_mut().zip(block) {
                let mut rng = SplitMix64::for_run(seed, i);
                *x = rng.gen_range(0.0..self.grand_total);
                out.push(RunDraw {
                    sample: UNDRAWN,
                    w: 0.0,
                    rng,
                });
            }
            let drawn = &mut out[base..];
            for ((fi, x), run) in frame.iter_mut().zip(&mut x).zip(drawn.iter_mut()) {
                let f = self.frame_of(*x);
                *fi = f as u32;
                *x = self.cell_variate(f, &mut run.rng);
            }
            // The tail of `draw`, written out: through a helper shared with
            // `draw` this pass measured 21.1 instead of 19.8 ns a draw,
            // inlined or not.
            for ((fi, x), run) in frame.iter().zip(&x).zip(drawn.iter_mut()) {
                let (t, table) = self.frames[*fi as usize];
                let table = &self.tables[table];
                let ci = table.guide.find(&table.cum, *x);
                let ri = self.radius.sample_index(&mut run.rng);
                let sample = AttackSample {
                    t,
                    center: table.cells[ci],
                    radius: self.radius.options()[ri],
                    phase: run.rng.gen_range(0..PHASE_BINS),
                };
                run.w = self.weight_at(&sample, [*fi as usize, ci, ri]);
                run.sample = sample;
            }
        }
    }

    /// [`FramedStrategy::weight`] of a sample drawn at frame, cell and
    /// radius indices `idx`: the same `f64` operations on the same operands
    /// in the same order as [`FramedStrategy::f_pmf`] and
    /// [`FramedStrategy::pmf`], without the four binary searches that
    /// re-find them, and with the leading operations of both done once per
    /// cell (`mass`) and per frame and radius (`f_mass`).
    #[inline]
    fn weight_at(&self, s: &AttackSample, [fi, ci, ri]: [usize; 3]) -> f64 {
        let Some(f) = self.f_mass[fi * self.g_radius.len() + ri] else {
            return self.weight(s);
        };
        let g = self.tables[self.frames[fi].1].mass[ci] * self.g_radius[ri] / f64::from(PHASE_BINS);
        if g < f64::MIN_POSITIVE {
            return 0.0;
        }
        f / g
    }

    fn weight(&self, s: &AttackSample) -> f64 {
        let g = self.pmf(s);
        if g < f64::MIN_POSITIVE {
            // Zero mass means a foreign sample off the strategy's support;
            // a denormal g would survive the old `g <= 0` check and turn
            // `f/g` into an inf/NaN weight that poisons the Welford
            // accumulator. Either way the sample carries no usable mass:
            // skip it with weight 0.
            return 0.0;
        }
        self.f_pmf(s) / g
    }

    /// The marginal `g_T` over timing distances (paper Figure 8(a)).
    fn t_marginal(&self) -> Vec<(i64, f64)> {
        self.frames
            .iter()
            .map(|&(t, table)| (t, self.tables[table].total / self.grand_total))
            .collect()
    }
}

/// Importance sampling restricted to the responding-signal cones, with
/// uniform weights (the paper's middle baseline, "fanin cone sampling").
#[derive(Debug, Clone)]
pub struct ConeSampling {
    inner: FramedStrategy,
}

impl ConeSampling {
    /// Uniform sampling over the sample-space cells of each timing
    /// distance.
    pub fn new(
        f: AttackDistribution,
        prechar: &Precharacterization,
        radius_options: Vec<f64>,
    ) -> Self {
        let support = spatial_support(&f);
        let frames = prechar
            .space
            .frames()
            .iter()
            .map(|fr| {
                let cells: Vec<GateId> = fr
                    .cells
                    .iter()
                    .copied()
                    .filter(|g| support.binary_search(g).is_ok())
                    .collect();
                Frame::uniform(fr.t, cells)
            })
            .filter(|fr| !fr.cells.is_empty())
            .collect();
        Self {
            inner: FramedStrategy::new(f, frames, RadiusDist::uniform(radius_options)),
        }
    }

    /// The marginal over timing distances.
    pub fn t_marginal(&self) -> Vec<(i64, f64)> {
        self.inner.t_marginal()
    }
}

impl SamplingStrategy for ConeSampling {
    fn name(&self) -> &'static str {
        "fanin_cone"
    }

    fn draw(&self, rng: &mut dyn rand::RngCore) -> AttackSample {
        self.inner.draw(rng)
    }

    fn weight(&self, sample: &AttackSample) -> f64 {
        self.inner.weight(sample)
    }

    fn draw_chunk(&self, seed: u64, runs: Range<u64>, out: &mut Vec<RunDraw>) {
        self.inner.draw_chunk(seed, runs, out)
    }
}

/// The paper's full importance-sampling strategy.
#[derive(Debug, Clone)]
pub struct ImportanceSampling {
    inner: FramedStrategy,
}

impl ImportanceSampling {
    /// Build `g_{T,P}` from the pre-characterization with parameters `α`
    /// and `β`.
    pub fn new(
        f: AttackDistribution,
        model: &SystemModel,
        prechar: &Precharacterization,
        alpha: f64,
        beta: f64,
        radius_options: Vec<f64>,
    ) -> Self {
        let support = spatial_support(&f);
        let smoothing_radius = radius_options.iter().cloned().fold(0.0, f64::max);
        // A support cell's spot neighbours do not depend on the frame: list
        // them once per (support cell, radius option), indexed like
        // `support`, and share them across every frame.
        let neighbours: Vec<Vec<Vec<GateId>>> = if smoothing_radius > 0.0 {
            radius_options
                .iter()
                .map(|&r| {
                    support
                        .iter()
                        .map(|&c| {
                            if r > 0.0 {
                                model.placement.cells_within(c, r)
                            } else {
                                Vec::new()
                            }
                        })
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        // Each support cell's position in `support`, and each frame's raw
        // weights (`None` off the frame; reset after every frame), both
        // indexed by `GateId::index`.
        let mut support_slot: Vec<Option<usize>> = vec![None; model.mpu.netlist().len()];
        for (k, g) in support.iter().enumerate() {
            // A foreign id lies in no frame; leave it out of the table.
            if let Some(slot) = support_slot.get_mut(g.index()) {
                *slot = Some(k);
            }
        }
        let mut raw: Vec<Option<f64>> = vec![None; model.mpu.netlist().len()];
        let frames = prechar
            .space
            .frames()
            .iter()
            .map(|fr| {
                // Raw per-cell weight over the whole frame (not just the
                // support): 1 + α · Corr_i(g, rs) · δ(L(g) ≥ β·i), with the
                // correlation of registers taken as the larger of the
                // signature-measured and injection-measured values
                // (persistent state rarely toggles, so signatures alone
                // under-weight it).
                let raw_weight = |g: GateId, mut corr: f64| {
                    // The injection-measured suppression correlation is a
                    // persistence signal: an error latched into a register
                    // acts from the *next* cycle on, so it only applies to
                    // frames i >= 1 (t >= 2). At frame 0 the verdict has
                    // already latched and only the signature correlation of
                    // the combinational path matters.
                    if fr.frame >= 1 {
                        corr = corr.max(prechar.cell_suppress(g));
                    }
                    let lifetime_ok = f64::from(prechar.cell_lifetime(g)) >= beta * fr.frame as f64;
                    1.0 + alpha * corr * f64::from(u8::from(lifetime_ok))
                };
                // Each cell's raw weight depends only on (cell, frame), but
                // the smoothing pass below reads it once per (cell, radius,
                // neighbor) triple — precompute the whole frame once. The
                // table also answers frame membership.
                let corr = prechar.correlation.corr_sorted(fr.frame, &fr.cells);
                for (&g, &c) in fr.cells.iter().zip(&corr) {
                    raw[g.index()] = Some(raw_weight(g, c));
                }
                // The frame's support cells (sorted, like both inputs),
                // each with its position in `support`.
                let (cells, slots): (Vec<GateId>, Vec<usize>) = fr
                    .cells
                    .iter()
                    .filter_map(|&g| support_slot[g.index()].map(|k| (g, k)))
                    .unzip();
                // Spatial smoothing: a strike at center c impacts every
                // cell within the sampled spot radius, so the importance of
                // c is the radius-distribution average of the best raw
                // importance its spot can cover. Unlike a plain max this
                // keeps a gradient toward the high-importance cells instead
                // of flattening the whole neighborhood.
                let weights: Vec<f64> = cells
                    .iter()
                    .zip(&slots)
                    .map(|(&c, &k)| {
                        let raw_c = raw[c.index()].expect("frame cell");
                        if smoothing_radius <= 0.0 {
                            return raw_c;
                        }
                        let mut acc = 0.0;
                        for near in &neighbours {
                            let mut best = raw_c;
                            for g in &near[k] {
                                if let Some(w) = raw[g.index()] {
                                    best = best.max(w);
                                }
                            }
                            acc += best;
                        }
                        acc / radius_options.len() as f64
                    })
                    .collect();
                for &g in &fr.cells {
                    raw[g.index()] = None;
                }
                Frame::from_weights(fr.t, cells, weights)
            })
            .filter(|fr| !fr.cells.is_empty())
            .collect();
        Self {
            inner: FramedStrategy::new(f, frames, RadiusDist::uniform(radius_options)),
        }
    }

    /// The marginal `g_T` over timing distances (paper Figure 8(a)).
    pub fn t_marginal(&self) -> Vec<(i64, f64)> {
        self.inner.t_marginal()
    }

    /// The probability mass of a sample under `g_{T,P}`.
    pub fn pmf(&self, s: &AttackSample) -> f64 {
        self.inner.pmf(s)
    }
}

impl SamplingStrategy for ImportanceSampling {
    fn name(&self) -> &'static str {
        "importance"
    }

    fn draw(&self, rng: &mut dyn rand::RngCore) -> AttackSample {
        self.inner.draw(rng)
    }

    fn weight(&self, sample: &AttackSample) -> f64 {
        self.inner.weight(sample)
    }

    fn draw_chunk(&self, seed: u64, runs: Range<u64>, out: &mut Vec<RunDraw>) {
        self.inner.draw_chunk(seed, runs, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn setup() -> (SystemModel, Precharacterization, ExperimentConfig) {
        let model = SystemModel::with_defaults().unwrap();
        let cfg = ExperimentConfig {
            t_max: 6,
            ..Default::default()
        };
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        (model, prechar, cfg)
    }

    /// The strategy build the dense one replaces: a `HashMap` of raw
    /// weights per frame and a fresh `cells_within` call per (cell, radius)
    /// in every frame. Kept as the test oracle.
    fn reference_frames(
        f: &AttackDistribution,
        model: &SystemModel,
        prechar: &Precharacterization,
        alpha: f64,
        beta: f64,
        radius_options: &[f64],
    ) -> Vec<Frame> {
        let support = spatial_support(f);
        let smoothing_radius = radius_options.iter().cloned().fold(0.0, f64::max);
        prechar
            .space
            .frames()
            .iter()
            .map(|fr| {
                let raw_weight = |g: GateId| {
                    let mut corr = prechar.correlation.corr(g, fr.frame);
                    if fr.frame >= 1 {
                        corr = corr.max(prechar.cell_suppress(g));
                    }
                    let lifetime_ok = f64::from(prechar.cell_lifetime(g)) >= beta * fr.frame as f64;
                    1.0 + alpha * corr * f64::from(u8::from(lifetime_ok))
                };
                let raw: std::collections::HashMap<GateId, f64> =
                    fr.cells.iter().map(|&g| (g, raw_weight(g))).collect();
                let mut cells: Vec<GateId> = fr
                    .cells
                    .iter()
                    .copied()
                    .filter(|g| support.binary_search(g).is_ok())
                    .collect();
                cells.sort_unstable();
                let weights: Vec<f64> = cells
                    .iter()
                    .map(|&c| {
                        let raw_c = raw[&c];
                        if smoothing_radius <= 0.0 {
                            return raw_c;
                        }
                        let mut acc = 0.0;
                        for &r in radius_options {
                            let mut best = raw_c;
                            if r > 0.0 {
                                for g in model.placement.cells_within(c, r) {
                                    if let Some(&w) = raw.get(&g) {
                                        best = best.max(w);
                                    }
                                }
                            }
                            acc += best;
                        }
                        acc / radius_options.len() as f64
                    })
                    .collect();
                Frame::from_weights(fr.t, cells, weights)
            })
            .filter(|fr| !fr.cells.is_empty())
            .collect()
    }

    #[test]
    fn importance_frames_equal_the_reference_build_bit_for_bit() {
        let model = SystemModel::with_defaults().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (t_max, radius_options) in [
            (6, vec![0.0, 1.0]),
            (50, vec![0.0, 1.0]),
            (8, vec![0.0]),
            (8, vec![2.0, 0.0, 1.0]),
        ] {
            let cfg = ExperimentConfig {
                t_max,
                radius_options: radius_options.clone(),
                ..Default::default()
            };
            let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
            let f = baseline_distribution(&model, &cfg);
            let is = ImportanceSampling::new(
                f.clone(),
                &model,
                &prechar,
                cfg.alpha,
                cfg.beta,
                radius_options.clone(),
            );
            let want = reference_frames(&f, &model, &prechar, cfg.alpha, cfg.beta, &radius_options);
            let got = &is.inner;
            assert_eq!(
                got.frames.len(),
                want.len(),
                "t_max {t_max}, radii {radius_options:?}"
            );
            for (&(t, table), w) in got.frames.iter().zip(&want) {
                let what = format!("t {} at t_max {t_max}, radii {radius_options:?}", w.t);
                let g = &got.tables[table];
                let mass: Vec<f64> = w.weights.iter().map(|x| x / got.grand_total).collect();
                assert_eq!(t, w.t, "{what}");
                assert_eq!(g.cells, w.cells, "{what}");
                assert_eq!(bits(&g.mass), bits(&mass), "{what}");
                assert_eq!(bits(&g.cum), bits(&w.cum), "{what}");
                assert_eq!(g.total.to_bits(), w.total.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn subblock_has_requested_size_and_contains_rs() {
        let model = SystemModel::with_defaults().unwrap();
        let cells = subblock_cells(&model, 0.125);
        let expect = (model.placement.placeable().len() as f64 * 0.125).ceil() as usize;
        assert_eq!(cells.len(), expect);
        // The sub-block must cover security-critical state: at least some
        // configuration registers or the responding-signal cone.
        let in_cone =
            xlmc_netlist::cones::fanin_cone(model.mpu.netlist(), model.mpu.responding_signal(), 0);
        let overlap = cells
            .iter()
            .filter(|&&g| in_cone.frame(0).contains(g))
            .count();
        assert!(overlap > cells.len() / 4, "cone overlap {overlap}");
    }

    #[test]
    fn random_sampling_has_unit_weight() {
        let (model, _, cfg) = setup();
        let f = baseline_distribution(&model, &cfg);
        let strat = RandomSampling::new(f);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let s = strat.draw(&mut rng);
            assert_eq!(strat.weight(&s), 1.0);
            assert!((1..=cfg.t_max).contains(&s.t));
        }
    }

    #[test]
    fn importance_pmf_sums_to_one() {
        let (model, prechar, cfg) = setup();
        let f = baseline_distribution(&model, &cfg);
        let is = ImportanceSampling::new(
            f,
            &model,
            &prechar,
            cfg.alpha,
            cfg.beta,
            cfg.radius_options.clone(),
        );
        let mut total = 0.0;
        for fr in prechar.space.frames() {
            for &g in &fr.cells {
                for &r in &cfg.radius_options {
                    for phase in 0..PHASE_BINS {
                        total += is.pmf(&AttackSample {
                            t: fr.t,
                            center: g,
                            radius: r,
                            phase,
                        });
                    }
                }
            }
        }
        assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
    }

    #[test]
    fn importance_marginal_prefers_small_t() {
        // Frame 0 (t = 1) holds the whole comparator cone; deep frames only
        // the config loop: ω_1 must dominate (paper Figure 8(a) shape).
        let (model, prechar, cfg) = setup();
        let f = baseline_distribution(&model, &cfg);
        let is = ImportanceSampling::new(
            f,
            &model,
            &prechar,
            cfg.alpha,
            cfg.beta,
            cfg.radius_options.clone(),
        );
        let marg = is.t_marginal();
        let p1 = marg.iter().find(|&&(t, _)| t == 1).unwrap().1;
        let pmax = marg.iter().map(|&(_, p)| p).fold(0.0, f64::max);
        assert!((p1 - pmax).abs() < 1e-12, "g_T(1) = {p1} is not the mode");
        let plast = marg.last().unwrap().1;
        assert!(p1 > plast, "g_T(1) = {p1} vs tail {plast}");
        let total: f64 = marg.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn drawn_samples_have_positive_weight_and_mass() {
        let (model, prechar, cfg) = setup();
        let f = baseline_distribution(&model, &cfg);
        for strat in [
            Box::new(ConeSampling::new(
                f.clone(),
                &prechar,
                cfg.radius_options.clone(),
            )) as Box<dyn SamplingStrategy>,
            Box::new(ImportanceSampling::new(
                f.clone(),
                &model,
                &prechar,
                cfg.alpha,
                cfg.beta,
                cfg.radius_options.clone(),
            )),
        ] {
            let mut rng = StdRng::seed_from_u64(11);
            for _ in 0..200 {
                let s = strat.draw(&mut rng);
                let w = strat.weight(&s);
                assert!(w >= 0.0, "{}: negative weight", strat.name());
                assert!(w.is_finite(), "{}: infinite weight", strat.name());
            }
        }
    }

    #[test]
    fn weight_guards_against_off_support_and_denormal_mass() {
        let (model, prechar, cfg) = setup();
        let f = baseline_distribution(&model, &cfg);
        let is = ImportanceSampling::new(
            f.clone(),
            &model,
            &prechar,
            cfg.alpha,
            cfg.beta,
            cfg.radius_options.clone(),
        );
        // A foreign sample off the support (a timing distance no frame
        // covers) has zero mass and must be skipped with weight 0.
        let off = AttackSample {
            t: 9_999,
            center: model.placement.placeable()[0],
            radius: 0.0,
            phase: 0,
        };
        assert_eq!(is.pmf(&off), 0.0);
        assert_eq!(is.weight(&off), 0.0);

        // Regression: a *denormal* g survived the old `g <= 0` check and
        // `f/g` overflowed to inf. Build a frame that gives one in-support
        // cell essentially zero mass and check the weight skips instead.
        let support = spatial_support(&f);
        let pair = vec![support[0], support[1]];
        let f2 = AttackDistribution {
            temporal: TemporalDist::uniform(1, 1),
            spatial: SpatialDist::UniformOverCells(pair.clone()),
            radius: RadiusDist::uniform(vec![0.0]),
        };
        let frame = Frame::from_weights(1, pair.clone(), vec![f64::MIN_POSITIVE * 1e-6, 1.0]);
        let strat = FramedStrategy::new(f2, vec![frame], RadiusDist::uniform(vec![0.0]));
        let s = AttackSample {
            t: 1,
            center: pair[0],
            radius: 0.0,
            phase: 0,
        };
        let g = strat.pmf(&s);
        assert!(
            g > 0.0 && g < f64::MIN_POSITIVE,
            "fixture must produce a denormal g, got {g:e}"
        );
        assert!(strat.f_pmf(&s) > 0.0);
        assert!(!(strat.f_pmf(&s) / g).is_finite(), "fixture must overflow");
        assert_eq!(strat.weight(&s), 0.0, "denormal g must skip, not blow up");
        // The draw-index path has the same guard. A cell of denormal mass
        // is never drawn, so hand it the cell's indices directly.
        assert!(strat.f_mass[0].is_some(), "fixture frame is on f's support");
        assert_eq!(strat.weight_at(&s, [0, 0, 0]), 0.0, "draw-index guard");
    }

    /// Every strategy of the draw properties, built once: a
    /// pre-characterization is too slow to rebuild per case.
    fn draw_fixture() -> &'static [Box<dyn SamplingStrategy>] {
        static STRATEGIES: std::sync::OnceLock<Vec<Box<dyn SamplingStrategy>>> =
            std::sync::OnceLock::new();
        STRATEGIES.get_or_init(|| {
            let (model, prechar, cfg) = setup();
            let f = baseline_distribution(&model, &cfg);
            vec![
                Box::new(RandomSampling::new(f.clone())),
                Box::new(ConeSampling::new(
                    f.clone(),
                    &prechar,
                    cfg.radius_options.clone(),
                )),
                Box::new(ImportanceSampling::new(
                    f,
                    &model,
                    &prechar,
                    cfg.alpha,
                    cfg.beta,
                    cfg.radius_options.clone(),
                )),
            ]
        })
    }

    proptest::proptest! {
        /// `draw_chunk` is `draw` then `weight` run by run, for every
        /// strategy: the same sample, the same weight bits, and each run's
        /// stream left at the same position (its next word equal), over
        /// chunks of one run, one short of a 512-run chunk, a whole one and
        /// one past it, starting anywhere.
        #[test]
        fn draw_chunk_is_draw_then_weight(
            seed in proptest::prelude::any::<u64>(),
            start in proptest::prelude::any::<u64>(),
            pick in 0u8..4,
        ) {
            let len = [1u64, 511, 512, 513][usize::from(pick)];
            let start = start.min(u64::MAX - len);
            // A stale run in `out`: the draw must clear it.
            let mut out = vec![draw_run(draw_fixture()[0].as_ref(), 7, 7)];
            for strat in draw_fixture() {
                strat.draw_chunk(seed, start..start + len, &mut out);
                proptest::prop_assert_eq!(out.len() as u64, len, "{}", strat.name());
                for (got, i) in out.iter_mut().zip(start..) {
                    let mut rng = SplitMix64::for_run(seed, i);
                    let want = strat.draw(&mut rng);
                    let w = strat.weight(&want);
                    let what = format!("{} run {i}", strat.name());
                    proptest::prop_assert_eq!(got.sample, want, "{}", what);
                    proptest::prop_assert_eq!(got.w.to_bits(), w.to_bits(), "{}", what);
                    proptest::prop_assert_eq!(got.rng.next_u64(), rng.next_u64(), "{} rng", what);
                }
            }
        }
    }

    /// The cumulative table of `weights`, as [`Frame::from_weights`] sums it.
    fn cumulative(weights: &[f64]) -> Vec<f64> {
        Frame::from_weights(1, vec![GateId(0); weights.len()], weights.to_vec()).cum
    }

    proptest::proptest! {
        /// The guide table's index is the binary search's at every entry
        /// of the table, at the neighbouring `f64` on either side of it,
        /// at both ends and past them, and at random points: for tables
        /// with repeated entries (zero weights, down to an all-zero table),
        /// denormal and huge weight spreads, and a single entry.
        #[test]
        fn guide_tables_find_the_partition_point_at_every_boundary(
            picks in proptest::collection::vec((0u8..6, 0u32..1 << 24), 1..300),
            points in proptest::collection::vec(0u32..1 << 24, 16..17),
        ) {
            let unit = |u: u32| f64::from(u) / f64::from(1u32 << 24);
            let weights: Vec<f64> = picks
                .iter()
                .map(|&(kind, u)| (kind, unit(u)))
                .map(|(kind, u)| match kind {
                    0 => 0.0,
                    1 => f64::MIN_POSITIVE * 1e-6 * (1.0 + u),
                    2 => 1.0,
                    3 => 1e12 * u,
                    _ => 1.0 + 40.0 * u,
                })
                .collect();
            let cum = cumulative(&weights);
            let total = *cum.last().unwrap();
            let guide = Guide::new(&cum);
            let want = |x: f64| cum.partition_point(|&c| c <= x).min(cum.len() - 1);
            let mut xs = vec![0.0, total, total.next_up(), 2.0 * total, f64::MAX];
            for &c in &cum {
                xs.extend([c.next_down(), c, c.next_up()]);
            }
            xs.extend(points.iter().map(|&u| unit(u) * total));
            for x in xs.into_iter().filter(|&x| x >= 0.0) {
                proptest::prop_assert_eq!(guide.find(&cum, x), want(x), "x = {:e}", x);
            }
        }
    }

    #[test]
    fn guide_tables_of_zero_weights_answer_the_last_entry() {
        for n in [1, 2, 7] {
            let cum = cumulative(&vec![0.0; n]);
            let guide = Guide::new(&cum);
            for x in [0.0, f64::MIN_POSITIVE, 1.0, f64::MAX] {
                assert_eq!(guide.find(&cum, x), n - 1, "{n} entries, x {x:e}");
            }
        }
    }

    /// The draw and weight of the binary-search strategy the guide tables
    /// and per-cell masses replaced, from the raw frames: frame and cell by
    /// `partition_point` over the cumulative weights, `g` from the raw
    /// weight. Kept as the oracle of [`FramedStrategy`].
    fn reference_draw_weighted(
        frames: &[Frame],
        strat: &FramedStrategy,
        rng: &mut dyn RngCore,
    ) -> (AttackSample, f64) {
        let mut rng = rng;
        let frame_cum = cumulative(&frames.iter().map(|fr| fr.total).collect::<Vec<_>>());
        let grand_total = *frame_cum.last().unwrap();
        let x = (&mut rng).gen_range(0.0..grand_total);
        let fi = frame_cum.partition_point(|&c| c <= x).min(frames.len() - 1);
        let frame = &frames[fi];
        let x = (&mut rng).gen_range(0.0..frame.total);
        let ci = frame
            .cum
            .partition_point(|&c| c <= x)
            .min(frame.cells.len() - 1);
        let ri = strat.radius.sample_index(&mut rng);
        let s = AttackSample {
            t: frame.t,
            center: frame.cells[ci],
            radius: strat.radius.options()[ri],
            phase: (&mut rng).gen_range(0..PHASE_BINS),
        };
        let bins = f64::from(PHASE_BINS);
        let g = frame.weights[ci] / grand_total * strat.radius.pmf(s.radius) / bins;
        let w = if g < f64::MIN_POSITIVE {
            0.0
        } else {
            strat.f_pmf(&s) / g
        };
        (s, w)
    }

    #[test]
    fn draws_and_weights_equal_the_binary_search_reference() {
        let model = SystemModel::with_defaults().unwrap();
        for (t_max, radius_options) in [
            (6, vec![0.0, 1.0]),
            (50, vec![0.0, 1.0]),
            (8, vec![2.0, 0.0, 1.0]),
        ] {
            let cfg = ExperimentConfig {
                t_max,
                radius_options: radius_options.clone(),
                ..Default::default()
            };
            let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
            let f = baseline_distribution(&model, &cfg);
            let frames =
                reference_frames(&f, &model, &prechar, cfg.alpha, cfg.beta, &radius_options);
            let strat = FramedStrategy::new(
                f.clone(),
                frames.clone(),
                RadiusDist::uniform(radius_options.clone()),
            );
            let seed = t_max as u64;
            let mut chunk = Vec::new();
            strat.draw_chunk(seed, 0..2_000, &mut chunk);
            for (run, got) in (0..).zip(&mut chunk) {
                let mut a = SplitMix64::for_run(seed, run);
                let mut c = a.clone();
                let (want, want_w) = reference_draw_weighted(&frames, &strat, &mut a);
                let what = format!("run {run}, t_max {t_max}");
                assert_eq!(got.sample, want, "{what}");
                assert_eq!(got.w.to_bits(), want_w.to_bits(), "{what}");
                assert_eq!(strat.draw(&mut c), want, "{what}");
                assert_eq!(strat.weight(&want).to_bits(), want_w.to_bits(), "{what}");
                let next = [a.next_u64(), got.rng.next_u64(), c.next_u64()];
                assert!(next.iter().all(|&n| n == next[0]), "{what}: rng positions");
            }
        }
    }

    /// A frame with a cell off `f`'s support has no per-frame `f` mass:
    /// its draws fall back to `weight`, which gives the off-support cell
    /// weight 0 and the on-support one its full weight.
    #[test]
    fn off_support_frame_falls_back_to_weight() {
        let (model, _, cfg) = setup();
        let f = baseline_distribution(&model, &cfg);
        let support = spatial_support(&f);
        let off = *model
            .placement
            .placeable()
            .iter()
            .find(|g| support.binary_search(g).is_err())
            .expect("a placed cell outside the sub-block");
        let mut cells = vec![support[0], off];
        cells.sort_unstable();
        let radius = RadiusDist::uniform(cfg.radius_options.clone());
        let strat = FramedStrategy::new(
            f.clone(),
            vec![
                Frame::uniform(1, vec![support[1], support[2]]),
                Frame::from_weights(2, cells, vec![1.0, 3.0]),
            ],
            radius,
        );
        let radii = cfg.radius_options.len();
        assert!(strat.f_mass[..radii].iter().all(Option::is_some));
        assert!(
            strat.f_mass[radii..].iter().all(Option::is_none),
            "off-support frame"
        );
        let mut seen = [false; 2];
        let mut chunk = Vec::new();
        strat.draw_chunk(5, 0..400, &mut chunk);
        for (run, got) in (0..).zip(&chunk) {
            let want = strat.draw(&mut SplitMix64::for_run(5, run));
            let w = got.w;
            assert_eq!(got.sample, want, "run {run}");
            assert_eq!(w.to_bits(), strat.weight(&want).to_bits(), "run {run}");
            if want.t == 2 {
                let on_support = want.center != off;
                assert_eq!(w > 0.0, on_support, "run {run}: {want:?} weight {w}");
                seen[usize::from(on_support)] = true;
            }
        }
        assert_eq!(seen, [true, true], "both cells of the fallback frame drawn");
    }

    #[test]
    fn importance_weights_are_unbiased_on_indicator_functions() {
        // E_g[w · 1{A}] must equal f(A) for any event A; check the event
        // "t == 2" by Monte Carlo.
        let (model, prechar, cfg) = setup();
        let f = baseline_distribution(&model, &cfg);
        let is = ImportanceSampling::new(
            f.clone(),
            &model,
            &prechar,
            cfg.alpha,
            cfg.beta,
            cfg.radius_options.clone(),
        );
        let mut rng = StdRng::seed_from_u64(5);
        let n = 60_000;
        let mut acc = 0.0;
        for _ in 0..n {
            let s = is.draw(&mut rng);
            if s.t == 2 {
                acc += is.weight(&s);
            }
        }
        let estimate = acc / n as f64;
        // Under f, P(t = 2, center in Ω(2) support) = (1/t_max) · |Ω(2) ∩
        // subblock| / |subblock|.
        let subblock = subblock_cells(&model, cfg.subblock_fraction);
        let frame2 = prechar.space.frame_for(2).unwrap();
        let overlap = frame2.cells.iter().filter(|g| subblock.contains(g)).count();
        let truth = (1.0 / cfg.t_max as f64) * overlap as f64 / subblock.len() as f64;
        assert!(
            (estimate - truth).abs() < 0.2 * truth.max(1e-3),
            "estimate {estimate} vs truth {truth}"
        );
    }

    #[test]
    fn cone_sampling_is_uniform_within_a_frame() {
        let (model, prechar, cfg) = setup();
        let f = baseline_distribution(&model, &cfg);
        let support = subblock_cells(&model, cfg.subblock_fraction);
        let cone = ConeSampling::new(f, &prechar, cfg.radius_options.clone());
        let marg = cone.t_marginal();
        // Uniform cell weights: marginal proportional to the sizes of the
        // support-restricted frames.
        let size = |t: i64| {
            prechar
                .space
                .frame_for(t)
                .unwrap()
                .cells
                .iter()
                .filter(|g| support.contains(g))
                .count() as f64
        };
        let (t_a, t_b) = (marg[0].0, marg[1].0);
        let pa = marg[0].1;
        let pb = marg[1].1;
        assert!((pa / pb - size(t_a) / size(t_b)).abs() < 1e-9);
    }
}
