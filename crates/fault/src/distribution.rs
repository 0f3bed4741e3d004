//! The attacker distribution `f_{T,P}` with exact mass evaluation.
//!
//! Paper §3.2: "Due to the temporal accuracy and parameter variation of the
//! attack techniques, we assume the corresponding random variable T and P
//! follow a uniform distribution with the range centered at the targeted
//! time and expected parameter." The experiments of Figure 11 vary exactly
//! these ranges, so every component exposes both sampling and probability
//! mass (the masses feed the importance-sampling weights `f/g`).

use crate::sample::{AttackSample, PHASE_BINS};
use rand::Rng;
use xlmc_netlist::GateId;

/// Distribution of the timing distance `T` (discrete uniform over cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalDist {
    min: i64,
    max: i64,
}

impl TemporalDist {
    /// Uniform over the inclusive cycle range `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics when `min > max`.
    pub fn uniform(min: i64, max: i64) -> Self {
        assert!(min <= max, "empty temporal range");
        Self { min, max }
    }

    /// A deterministic injection time (perfect temporal accuracy).
    pub fn delta(t: i64) -> Self {
        Self { min: t, max: t }
    }

    /// The inclusive support `[min, max]`.
    pub fn support(&self) -> (i64, i64) {
        (self.min, self.max)
    }

    /// Number of cycles in the support.
    pub fn len(&self) -> u64 {
        (self.max - self.min + 1) as u64
    }

    /// Whether the support is a single cycle.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draw a timing distance.
    pub fn sample(&self, rng: &mut impl Rng) -> i64 {
        rng.gen_range(self.min..=self.max)
    }

    /// Probability mass of a timing distance.
    pub fn pmf(&self, t: i64) -> f64 {
        if (self.min..=self.max).contains(&t) {
            1.0 / self.len() as f64
        } else {
            0.0
        }
    }
}

/// Distribution of the spot center (the spatial accuracy of Figure 11(b)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpatialDist {
    /// Uniform over a candidate cell set (worst spatial accuracy: "uniform
    /// distribution over all the gates").
    UniformOverCells(Vec<GateId>),
    /// Perfect aim at one cell ("delta function centered at target gates").
    Delta(GateId),
}

impl SpatialDist {
    /// Draw a center cell.
    ///
    /// # Panics
    ///
    /// Panics when a uniform candidate set is empty.
    pub fn sample(&self, rng: &mut impl Rng) -> GateId {
        match self {
            SpatialDist::UniformOverCells(cells) => {
                assert!(!cells.is_empty(), "empty spatial candidate set");
                cells[rng.gen_range(0..cells.len())]
            }
            SpatialDist::Delta(g) => *g,
        }
    }

    /// Probability mass of a center cell.
    pub fn pmf(&self, g: GateId) -> f64 {
        match self {
            SpatialDist::UniformOverCells(cells) => {
                if cells.contains(&g) {
                    1.0 / cells.len() as f64
                } else {
                    0.0
                }
            }
            SpatialDist::Delta(target) => {
                if *target == g {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Distribution of the spot radius (discrete uniform over options).
#[derive(Debug, Clone, PartialEq)]
pub struct RadiusDist {
    options: Vec<f64>,
}

impl RadiusDist {
    /// Uniform over a discrete set of radii.
    ///
    /// # Panics
    ///
    /// Panics when `options` is empty or holds a negative or non-finite
    /// radius (a spot must at least cover its center).
    pub fn uniform(options: Vec<f64>) -> Self {
        assert!(!options.is_empty(), "empty radius option set");
        for &r in &options {
            assert!(
                r.is_finite() && r >= 0.0,
                "radius {r} is not a finite non-negative number"
            );
        }
        Self { options }
    }

    /// A fixed radius.
    ///
    /// # Panics
    ///
    /// Panics when `r` is negative or non-finite.
    pub fn fixed(r: f64) -> Self {
        Self::uniform(vec![r])
    }

    /// The available radii.
    pub fn options(&self) -> &[f64] {
        &self.options
    }

    /// Draw a radius.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        self.options[self.sample_index(rng)]
    }

    /// Draw a radius as its index into [`RadiusDist::options`] (the same
    /// RNG consumption as [`RadiusDist::sample`]).
    pub fn sample_index(&self, rng: &mut impl Rng) -> usize {
        rng.gen_range(0..self.options.len())
    }

    /// Probability mass of a radius.
    pub fn pmf(&self, r: f64) -> f64 {
        if self.options.contains(&r) {
            1.0 / self.options.len() as f64
        } else {
            0.0
        }
    }
}

/// The joint attacker distribution `f_{T,P}` (independent components).
///
/// The strike phase within the cycle is always uniform over
/// [`PHASE_BINS`] bins — the attacker has no sub-cycle aim.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackDistribution {
    /// Timing-distance distribution.
    pub temporal: TemporalDist,
    /// Spot-center distribution.
    pub spatial: SpatialDist,
    /// Spot-radius distribution.
    pub radius: RadiusDist,
}

impl AttackDistribution {
    /// Draw one attack sample `(t, p)`.
    pub fn sample(&self, rng: &mut impl Rng) -> AttackSample {
        AttackSample {
            t: self.temporal.sample(rng),
            center: self.spatial.sample(rng),
            radius: self.radius.sample(rng),
            phase: rng.gen_range(0..PHASE_BINS),
        }
    }

    /// Joint probability mass `f_{T,P}(t, p)`.
    pub fn pmf(&self, s: &AttackSample) -> f64 {
        if s.phase >= PHASE_BINS {
            return 0.0;
        }
        self.temporal.pmf(s.t) * self.spatial.pmf(s.center) * self.radius.pmf(s.radius)
            / f64::from(PHASE_BINS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn temporal_uniform_mass_sums_to_one() {
        let d = TemporalDist::uniform(1, 50);
        let total: f64 = (1..=50).map(|t| d.pmf(t)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(d.pmf(0), 0.0);
        assert_eq!(d.pmf(51), 0.0);
        assert_eq!(d.len(), 50);
    }

    #[test]
    fn temporal_samples_stay_in_support() {
        let d = TemporalDist::uniform(-5, 5);
        let mut r = rng();
        for _ in 0..1000 {
            let t = d.sample(&mut r);
            assert!((-5..=5).contains(&t));
        }
    }

    #[test]
    fn temporal_samples_cover_the_support() {
        let d = TemporalDist::uniform(1, 10);
        let mut r = rng();
        let mut seen = [false; 10];
        for _ in 0..2000 {
            seen[(d.sample(&mut r) - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all cycles should be drawn");
    }

    #[test]
    fn temporal_delta_is_deterministic() {
        let d = TemporalDist::delta(7);
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 7);
        assert_eq!(d.pmf(7), 1.0);
        assert_eq!(d.pmf(8), 0.0);
    }

    #[test]
    fn spatial_uniform_and_delta_masses() {
        let cells = vec![GateId(1), GateId(2), GateId(3), GateId(4)];
        let u = SpatialDist::UniformOverCells(cells.clone());
        assert_eq!(u.pmf(GateId(1)), 0.25);
        assert_eq!(u.pmf(GateId(9)), 0.0);
        let d = SpatialDist::Delta(GateId(2));
        assert_eq!(d.pmf(GateId(2)), 1.0);
        assert_eq!(d.pmf(GateId(1)), 0.0);
        let mut r = rng();
        for _ in 0..100 {
            assert!(cells.contains(&u.sample(&mut r)));
            assert_eq!(d.sample(&mut r), GateId(2));
        }
    }

    #[test]
    fn radius_mass_and_sampling() {
        let d = RadiusDist::uniform(vec![1.0, 2.0, 4.0]);
        assert!((d.pmf(2.0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.pmf(3.0), 0.0);
        let f = RadiusDist::fixed(2.5);
        assert_eq!(f.pmf(2.5), 1.0);
        let mut r = rng();
        for _ in 0..100 {
            assert!(d.options().contains(&d.sample(&mut r)));
        }
    }

    #[test]
    fn joint_mass_is_product_and_normalized() {
        let f = AttackDistribution {
            temporal: TemporalDist::uniform(1, 5),
            spatial: SpatialDist::UniformOverCells(vec![GateId(0), GateId(1)]),
            radius: RadiusDist::uniform(vec![1.0, 2.0]),
        };
        let mut total = 0.0;
        for t in 1..=5 {
            for g in [GateId(0), GateId(1)] {
                for r in [1.0, 2.0] {
                    for phase in 0..PHASE_BINS {
                        total += f.pmf(&AttackSample {
                            t,
                            center: g,
                            radius: r,
                            phase,
                        });
                    }
                }
            }
        }
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn joint_samples_have_positive_mass() {
        let f = AttackDistribution {
            temporal: TemporalDist::uniform(1, 50),
            spatial: SpatialDist::UniformOverCells(vec![GateId(3), GateId(7)]),
            radius: RadiusDist::uniform(vec![0.5, 1.5]),
        };
        let mut r = rng();
        for _ in 0..200 {
            let s = f.sample(&mut r);
            assert!(f.pmf(&s) > 0.0);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let f = AttackDistribution {
            temporal: TemporalDist::uniform(1, 50),
            spatial: SpatialDist::UniformOverCells(vec![GateId(3), GateId(7)]),
            radius: RadiusDist::uniform(vec![0.5, 1.5]),
        };
        let a: Vec<AttackSample> = {
            let mut r = StdRng::seed_from_u64(9);
            (0..20).map(|_| f.sample(&mut r)).collect()
        };
        let b: Vec<AttackSample> = {
            let mut r = StdRng::seed_from_u64(9);
            (0..20).map(|_| f.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn radius_options_must_be_finite_and_non_negative() {
        for bad in [-1.0, -1e-9, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                std::panic::catch_unwind(|| RadiusDist::uniform(vec![0.0, bad])).is_err(),
                "uniform accepted {bad}"
            );
            assert!(
                std::panic::catch_unwind(|| RadiusDist::fixed(bad)).is_err(),
                "fixed accepted {bad}"
            );
        }
        // Zero (the center alone) and positive radii stay valid.
        assert_eq!(RadiusDist::uniform(vec![0.0, 2.5]).options(), &[0.0, 2.5]);
        assert_eq!(RadiusDist::fixed(0.0).pmf(0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty temporal range")]
    fn inverted_temporal_range_panics() {
        let _ = TemporalDist::uniform(5, 1);
    }
}
