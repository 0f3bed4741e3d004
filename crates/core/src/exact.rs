//! Exact single-fault SSF by enumeration: a zero-variance oracle.
//!
//! With one spot per run and no hardening, or a deterministic one, the
//! verdict `e(t, p)` is a fixed function of the sample (the paper defines
//! it so). The attacker distribution `f` is uniform over a finite support
//! of `(t, cell, radius, phase)` tuples, so the SSF is exactly the number
//! of successful tuples over the support size. [`enumerate`] walks the
//! whole support in that order on one [`FlowScratch`] and counts; it needs
//! no strategy, correlation or lifetime table.
//!
//! Stochastic hardening (`uniform`, `scfi_fsm`) and the double glitch draw
//! from the run's stream, so their verdict is a random variable: they are
//! a typed [`ExactError`], not an approximation.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;
use xlmc_fault::sample::PHASE_BINS;
use xlmc_fault::{AttackDistribution, AttackSample, SpatialDist};

use crate::estimator::ClassCounts;
use crate::flow::{FaultRunner, FlowScratch, StrikeClass};
use crate::harden::HardenedVariant;

/// The exact count over `f`'s whole support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactCount {
    /// Successful samples.
    pub successes: u64,
    /// Successful samples whose `(t, cell)` lies in the
    /// pre-characterization space (the cone-plus-halo frame of `t`): the
    /// part of the SSF the shipped strategies can see.
    pub in_space: u64,
    /// Samples in the support.
    pub support: u64,
    /// Where the errors of every sample landed.
    pub class_counts: ClassCounts,
}

/// Why a runner has no exact enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactError {
    /// A stochastic hardening countermeasure (named) decides each flip by
    /// a draw, so the verdict is not a function of the sample.
    StochasticHardening(&'static str),
    /// The double glitch draws its second spot from the run's stream.
    MultiFault,
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::StochasticHardening(name) => write!(
                f,
                "hardening {name} is stochastic: the verdict is not a function of the sample"
            ),
            ExactError::MultiFault => write!(
                f,
                "the double glitch draws its second spot: the verdict is not a function of the sample"
            ),
        }
    }
}

impl std::error::Error for ExactError {}

/// Count the successful samples of `f`'s whole support under `runner`, in
/// `(t, cell, radius, phase)` order on one scratch.
///
/// # Errors
///
/// [`ExactError`] when the runner's verdict is not a function of the
/// sample: stochastic hardening or the double glitch.
pub fn enumerate(runner: &FaultRunner, f: &AttackDistribution) -> Result<ExactCount, ExactError> {
    match runner.hardening {
        None | Some(HardenedVariant::DupConfigVote(_)) => {}
        Some(h) => return Err(ExactError::StochasticHardening(h.name())),
    }
    if runner.multi_fault.is_some() {
        return Err(ExactError::MultiFault);
    }
    let cells = match &f.spatial {
        SpatialDist::UniformOverCells(cells) => cells.as_slice(),
        SpatialDist::Delta(g) => std::slice::from_ref(g),
    };
    let (t_min, t_max) = f.temporal.support();
    // Deterministic runners draw nothing; the stream is only a parameter.
    let mut rng = StdRng::seed_from_u64(0);
    let mut scratch = FlowScratch::default();
    let mut count = ExactCount {
        successes: 0,
        in_space: 0,
        support: 0,
        class_counts: ClassCounts::default(),
    };
    for t in t_min..=t_max {
        let frame = runner.prechar.space.frame_for(t).map(|fr| &fr.cells);
        for &center in cells {
            let in_space = frame.is_some_and(|c| c.contains(&center));
            for &radius in f.radius.options() {
                for phase in 0..PHASE_BINS {
                    let sample = AttackSample {
                        t,
                        center,
                        radius,
                        phase,
                    };
                    let view = runner.run_with(&sample, &mut rng, &mut scratch);
                    count.support += 1;
                    match view.class {
                        StrikeClass::Masked => count.class_counts.masked += 1,
                        StrikeClass::MemoryOnly => count.class_counts.memory_only += 1,
                        StrikeClass::Mixed => count.class_counts.mixed += 1,
                    }
                    if view.success {
                        count.successes += 1;
                        count.in_space += u64::from(in_space);
                    }
                }
            }
        }
    }
    Ok(count)
}
