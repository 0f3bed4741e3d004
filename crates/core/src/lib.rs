//! `xlmc` — Cross-level Monte Carlo framework for system vulnerability
//! evaluation against fault attack.
//!
//! A reproduction of Li, Lai, Chandra & Pan (DAC 2017). The crate estimates
//! the **System Security Factor** — `SSF = E_{T,P}[E]`, the probability
//! that a fault attack with random timing distance `T` and technique
//! parameters `P` creates the illegal state transition that defeats a
//! security mechanism — on a gate-accurate model of the system under
//! attack.
//!
//! # Pipeline
//!
//! 1. [`SystemModel`] — the elaborated, placed MPU netlist with its cached
//!    simulators (from [`xlmc_soc`] / [`xlmc_gatesim`]).
//! 2. [`Evaluation`] — the benchmark's recorded golden run and target cycle.
//! 3. [`Precharacterization`] — the paper's three preparation steps:
//!    responding-signal cones ([`space`]), bit-flip correlation
//!    ([`correlation`]) and register lifetime/contamination classification
//!    ([`lifetime`]).
//! 4. [`sampling`] — the attacker distribution `f_{T,P}` and the
//!    random / fanin-cone / importance sampling strategies.
//! 5. [`flow`] — one attack run end to end: gate-level injection,
//!    cross-level error write-back, analytical evaluation
//!    ([`analytic`]) or RTL resume.
//! 6. [`estimator`] — the Monte Carlo campaign with convergence statistics
//!    and per-register SSF attribution; [`harden`] — the countermeasure
//!    model built on that attribution; [`exact`] — the exact single-fault
//!    SSF by enumeration of the whole support, the oracle estimates are
//!    judged against.
//!
//! # Example
//!
//! ```no_run
//! use xlmc::estimator::run_campaign;
//! use xlmc::flow::FaultRunner;
//! use xlmc::sampling::{baseline_distribution, ExperimentConfig, ImportanceSampling};
//! use xlmc::{Evaluation, Precharacterization, SystemModel};
//! use xlmc_soc::workloads;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = SystemModel::with_defaults()?;
//! let eval = Evaluation::new(workloads::illegal_write())?;
//! let cfg = ExperimentConfig::default();
//! let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
//!
//! let f = baseline_distribution(&model, &cfg);
//! let strategy = ImportanceSampling::new(
//!     f, &model, &prechar, cfg.alpha, cfg.beta, cfg.radius_options.clone(),
//! );
//! let runner = FaultRunner {
//!     model: &model,
//!     eval: &eval,
//!     prechar: &prechar,
//!     hardening: None,
//!     multi_fault: None,
//! };
//! let result = run_campaign(&runner, &strategy, 2_000, 42);
//! println!("SSF = {:.5} (variance {:.3e})", result.ssf, result.sample_variance);
//! # Ok(())
//! # }
//! ```
//!
//! See the repository's `README.md` for the architecture overview,
//! `DESIGN.md` for the substitution and refinement notes, and
//! `EXPERIMENTS.md` for paper-vs-measured results.

pub mod analytic;
mod batch;
mod checkpoint;
pub mod correlation;
pub mod estimator;
pub mod exact;
pub mod flow;
pub mod harden;
pub mod json;
pub mod lifetime;
pub mod metrics;
pub mod model;
pub mod multilevel;
pub mod precharacterize;
pub mod resume;
pub mod rng;
pub mod sampling;
pub mod space;
pub mod stats;
pub mod telemetry;
pub mod trace;

pub use model::{EvalError, Evaluation, SystemModel};
pub use precharacterize::Precharacterization;
