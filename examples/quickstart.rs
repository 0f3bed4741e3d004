//! Quickstart: estimate the System Security Factor of the stock MPU in a
//! few dozen lines.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p xlmc --example quickstart -- --threads 4
//! ```
//!
//! `--threads N` spreads the campaign over N workers; the estimate is
//! bit-identical at any thread count.
//!
//! The flow mirrors the paper end to end:
//!
//! 1. build the gate-level system model (elaborated MPU + placement),
//! 2. record the golden run of the illegal-write benchmark,
//! 3. pre-characterize the system (cones, correlations, lifetimes),
//! 4. define the attacker distribution `f_{T,P}`,
//! 5. run a Monte Carlo campaign with the importance-sampling strategy,
//! 6. read off the SSF estimate with its convergence statistics.

use xlmc::estimator::{run_campaign_with, CampaignOptions};
use xlmc::flow::FaultRunner;
use xlmc::sampling::{baseline_distribution, ExperimentConfig, ImportanceSampling};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_soc::workloads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The engine flags (`--threads N`, ...); a bad one exits 2 before any
    // work.
    let options = CampaignOptions::from_args();

    // 1. The system under evaluation: the microcontroller SoC with its MPU
    //    elaborated to gates and placed.
    let model = SystemModel::with_defaults()?;
    println!(
        "MPU netlist: {} combinational gates, {} registers",
        model.mpu.netlist().stats().combinational,
        model.mpu.netlist().stats().dffs,
    );

    // 2. The benchmark: a user-mode process attempting an illegal write;
    //    the golden run locates the target cycle T_t where the MPU catches
    //    it.
    let eval = Evaluation::new(workloads::illegal_write())?;
    println!(
        "golden run: {} cycles, security mechanism fires at T_t = {}",
        eval.golden.cycles, eval.target_cycle
    );

    // 3. Pre-characterization: responding-signal cones, bit-flip
    //    correlations, register lifetimes and classification.
    let cfg = ExperimentConfig::default();
    let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
    println!(
        "pre-characterization: {:.0}% of registers are memory-type",
        prechar.registers.memory_fraction() * 100.0
    );

    // 4. The attacker model: radiation strikes with uniform timing
    //    uncertainty over 50 cycles and uniform aim over a sub-block of the
    //    MPU.
    let f = baseline_distribution(&model, &cfg);

    // 5. A 2,000-attack campaign with the paper's importance-sampling
    //    strategy, sharded over `--threads` workers.
    let strategy = ImportanceSampling::new(
        f,
        &model,
        &prechar,
        cfg.alpha,
        cfg.beta,
        cfg.radius_options.clone(),
    );
    let runner = FaultRunner {
        model: &model,
        eval: &eval,
        prechar: &prechar,
        hardening: None,
        multi_fault: None,
    };
    let result = run_campaign_with(&runner, &strategy, 2_000, 42, &options);

    // 6. The verdict.
    println!("\nSSF estimate      : {:.5}", result.ssf);
    println!("sample variance   : {:.3e}", result.sample_variance);
    println!(
        "Pr[|err| >= 0.01] : <= {:.3} (LLN bound)",
        result.lln_bound(0.01)
    );
    println!(
        "strike outcomes   : {} masked / {} memory-only / {} mixed",
        result.class_counts.masked, result.class_counts.memory_only, result.class_counts.mixed
    );
    println!(
        "evaluation paths  : {} analytical, {} RTL resumes",
        result.analytic_runs, result.rtl_runs
    );
    Ok(())
}
