//! Holistic probabilistic fault-attack models (paper §3.2).
//!
//! The paper models a fault attack by two quantities sampled from random
//! variables: the **timing distance** `t = T_t − T_e` between the target
//! cycle and the injection cycle, and the **technique parameter vector**
//! `p`. For the radiation-based techniques evaluated in the paper,
//! `p = [g, r]`: the center gate and the radius of the radiated spot. The
//! intrinsic uncertainty of the attack — limited temporal accuracy,
//! cycle-to-cycle parameter variation — is captured by the joint
//! distribution `f_{T,P}`.
//!
//! * [`spot`] — the radiated-spot model: which placed cells a strike with
//!   parameters `[g, r]` impacts (following the multiple-event-transient
//!   construction of the paper's ref. \[18\]),
//! * [`distribution`] — the attacker distribution `f_{T,P}` with exact
//!   probability-mass evaluation (needed for importance-sampling weights),
//! * [`sample`] — the concrete attack sample `(t, p)`,
//! * [`batch`] — CSR-packed struck-cell lists for the packed campaign
//!   kernels (one spot query per distinct `(center, radius)`, cached;
//!   shared storage),
//! * [`multifault`] — the SoK double-glitch mode: a second spot per run,
//!   correlated in time, independent in space, drawn from a
//!   deterministically split child stream.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use xlmc_fault::distribution::{AttackDistribution, RadiusDist, SpatialDist, TemporalDist};
//! use xlmc_netlist::GateId;
//!
//! let f = AttackDistribution {
//!     temporal: TemporalDist::uniform(1, 50),
//!     spatial: SpatialDist::UniformOverCells(vec![GateId(0), GateId(1)]),
//!     radius: RadiusDist::uniform(vec![1.0, 2.0]),
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let s = f.sample(&mut rng);
//! assert!(f.pmf(&s) > 0.0);
//! ```

pub mod batch;
pub mod distribution;
pub mod multifault;
pub mod sample;
pub mod spot;

pub use batch::LaneStrikes;
pub use distribution::{AttackDistribution, RadiusDist, SpatialDist, TemporalDist};
pub use multifault::DoubleGlitch;
pub use sample::AttackSample;
pub use spot::RadiationSpot;
