//! Attack × defense scenario matrix: SSF over the full grid.
//!
//! Sweeps every attack workload against every defense variant under both
//! fault modes (single-spot and SoK double-glitch). Each cell's
//! single-estimator campaign is executed under **both kernels ×
//! threads {1, 4}**; the binary exits 1 if any of those four
//! configurations disagrees on a single ssf/variance bit —
//! the engine's determinism contract, enforced per grid cell. Each cell
//! also runs the two-level MLMC estimator over the same streams for the
//! cross-estimator view (its correction term quantifies the cross-level
//! model gap for that attack × defense pair).
//!
//! ```text
//! scenario_matrix [--smoke] [--out PATH] [--runs N] [--seed S]
//! ```
//!
//! The report (`scenario_matrix.json` by default, format
//! `xlmc-scenario-v1`, `schemas/scenario.schema.json`) is schema-validated
//! in-process before it is written; a document the schema rejects is a bug
//! in this binary, and exits 1.
//!
//! `--smoke` runs the reduced CI grid: four attacks × three defenses ×
//! both fault modes at 512 runs per kernel configuration.

use std::time::Instant;

use xlmc::estimator::{
    run_campaign_with, CampaignKernel, CampaignOptions, CampaignResult, EstimatorKind, CHUNK_RUNS,
};
use xlmc::flow::FaultRunner;
use xlmc::harden::{DupConfigVote, HardenedSet, HardenedVariant, HardeningModel, ScfiFsm};
use xlmc::json::{json_escape, validate_against_schema, JsonValue};
use xlmc::sampling::{baseline_distribution, ExperimentConfig, ImportanceSampling};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_fault::DoubleGlitch;
use xlmc_soc::{workloads, MpuBit, Workload};

const KERNELS: &[CampaignKernel] = &[CampaignKernel::Scalar, CampaignKernel::Compiled];
const THREADS: &[usize] = &[1, 4];

struct Args {
    smoke: bool,
    out: String,
    runs: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "scenario_matrix.json".to_owned(),
        runs: 0,
        seed: 0xD1CE,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
            None => (arg, None),
        };
        let value = |it: &mut dyn Iterator<Item = String>| {
            inline.clone().or_else(|| it.next()).unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = value(&mut it),
            "--runs" => {
                args.runs = value(&mut it).parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --runs value");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                args.seed = value(&mut it).parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --seed value");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                println!(
                    "scenario_matrix [--smoke] [--out PATH] [--runs N] [--seed S]\n\
                     sweep SSF over the attack x defense x fault-mode grid;\n\
                     every cell is bit-checked across scalar|compiled\n\
                     kernels and threads 1|4 before the report is written"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if args.runs == 0 {
        args.runs = if args.smoke { 512 } else { 2048 };
    }
    // The report is written after the whole sweep: check its path first.
    if let Err(e) = xlmc::estimator::probe_writable(std::path::Path::new(&args.out), false) {
        eprintln!("error: out {} cannot be written: {e}", args.out);
        std::process::exit(2);
    }
    args
}

fn defense_variant(name: &str, model: &SystemModel) -> Option<HardenedVariant> {
    let _ = model;
    match name {
        "none" => None,
        "uniform" => Some(HardenedVariant::Uniform(HardenedSet::new(
            [MpuBit::Violation, MpuBit::Enable],
            HardeningModel::default(),
        ))),
        "scfi_fsm" => Some(HardenedVariant::ScfiFsm(ScfiFsm::new())),
        "dup_config_vote" => Some(HardenedVariant::DupConfigVote(DupConfigVote::new())),
        other => unreachable!("unknown defense {other}"),
    }
}

struct Cell {
    attack: &'static str,
    defense: &'static str,
    fault_mode: &'static str,
    reference: CampaignResult,
    area_overhead: f64,
    mlmc_ssf: f64,
    mlmc_correction: f64,
    elapsed_s: f64,
}

fn main() {
    let args = parse_args();
    let attacks: Vec<fn() -> Workload> = if args.smoke {
        vec![
            workloads::illegal_write,
            workloads::illegal_read,
            workloads::trap_escalation,
            workloads::instruction_skip,
        ]
    } else {
        vec![
            workloads::illegal_write,
            workloads::illegal_read,
            workloads::dma_exfiltration,
            workloads::trap_escalation,
            workloads::instruction_skip,
        ]
    };
    let defenses: &[&'static str] = if args.smoke {
        &["none", "scfi_fsm", "dup_config_vote"]
    } else {
        &["none", "uniform", "scfi_fsm", "dup_config_vote"]
    };
    let fault_modes: &[&'static str] = &["single", "double"];
    // The MLMC run needs the four-chunk pilot plus planned chunks to
    // exercise both levels, whatever the per-kernel run count is.
    let mlmc_runs = args.runs.max(6 * CHUNK_RUNS);

    let model = SystemModel::with_defaults().unwrap_or_else(|e| {
        eprintln!("error: cannot build the system model: {e}");
        std::process::exit(2);
    });
    let cfg = ExperimentConfig {
        t_max: 16,
        ..Default::default()
    };
    let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
    let fd = baseline_distribution(&model, &cfg);
    let glitch = DoubleGlitch::new(fd.spatial.clone(), fd.radius.clone());
    let strategy = ImportanceSampling::new(
        fd.clone(),
        &model,
        &prechar,
        cfg.alpha,
        cfg.beta,
        cfg.radius_options.clone(),
    );

    let total = attacks.len() * defenses.len() * fault_modes.len();
    let mut cells: Vec<Cell> = Vec::with_capacity(total);
    let mut divergences = 0usize;
    for attack in &attacks {
        let workload = attack();
        let attack_name = workload.name;
        let eval = Evaluation::new(workload).unwrap_or_else(|e| {
            eprintln!("error: golden run of {attack_name} failed: {e}");
            std::process::exit(2);
        });
        for &defense in defenses {
            let hardening = defense_variant(defense, &model);
            let area_overhead = hardening.as_ref().map_or(0.0, |h| h.area_overhead(&model));
            for &fault_mode in fault_modes {
                let start = Instant::now();
                let runner = FaultRunner {
                    model: &model,
                    eval: &eval,
                    prechar: &prechar,
                    hardening: hardening.as_ref(),
                    multi_fault: (fault_mode == "double").then_some(&glitch),
                };
                // The determinism gate: all kernel x thread combinations
                // must agree bit for bit.
                let mut reference: Option<CampaignResult> = None;
                let mut run_config = |opts: CampaignOptions, what: String| {
                    let r = run_campaign_with(&runner, &strategy, args.runs, args.seed, &opts);
                    match &reference {
                        None => reference = Some(r),
                        Some(want) => {
                            if r.ssf.to_bits() != want.ssf.to_bits()
                                || r.sample_variance.to_bits() != want.sample_variance.to_bits()
                                || r.successes != want.successes
                            {
                                eprintln!(
                                    "DIVERGENCE {attack_name}/{defense}/{fault_mode} [{what}]: \
                                     ssf {} ({:#018x}) vs reference {} ({:#018x})",
                                    r.ssf,
                                    r.ssf.to_bits(),
                                    want.ssf,
                                    want.ssf.to_bits(),
                                );
                                divergences += 1;
                            }
                        }
                    }
                };
                for &kernel in KERNELS {
                    for &threads in THREADS {
                        run_config(
                            CampaignOptions {
                                threads,
                                ..CampaignOptions::with_kernel(kernel)
                            },
                            format!("{} threads={threads}", kernel.as_arg()),
                        );
                    }
                }
                let reference = reference.expect("at least one configuration ran");

                let mlmc = run_campaign_with(
                    &runner,
                    &strategy,
                    mlmc_runs,
                    args.seed,
                    &CampaignOptions {
                        estimator: EstimatorKind::Mlmc,
                        ..CampaignOptions::with_threads(2)
                    },
                );
                let summary = mlmc.mlmc.as_ref().expect("mlmc summary present");
                let elapsed_s = start.elapsed().as_secs_f64();
                eprintln!(
                    "[{:>2}/{total}] {attack_name:>16} x {defense:<15} x {fault_mode:<6} \
                     ssf {:.6e} (mlmc {:.6e}, corr {:+.2e}) {:>5.1}s",
                    cells.len() + 1,
                    reference.ssf,
                    mlmc.ssf,
                    summary.mean1_diff,
                    elapsed_s,
                );
                cells.push(Cell {
                    attack: attack_name,
                    defense,
                    fault_mode,
                    mlmc_ssf: mlmc.ssf,
                    mlmc_correction: summary.mean1_diff,
                    reference,
                    area_overhead,
                    elapsed_s,
                });
            }
        }
    }

    if divergences > 0 {
        eprintln!("error: {divergences} kernel/thread divergences — see above");
        std::process::exit(1);
    }

    let report = render_report(&args, &attacks, defenses, fault_modes, mlmc_runs, &cells);
    let doc = JsonValue::parse(&report).unwrap_or_else(|e| {
        eprintln!("error: report is not valid JSON: {e}");
        std::process::exit(1);
    });
    let schema_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/scenario.schema.json"
    );
    let schema_src = std::fs::read_to_string(schema_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {schema_path}: {e}");
        std::process::exit(2);
    });
    let schema = JsonValue::parse(&schema_src).unwrap_or_else(|e| {
        eprintln!("error: {schema_path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    if let Err(e) = validate_against_schema(&doc, &schema) {
        eprintln!("error: report fails its own schema: {e}");
        std::process::exit(1);
    }
    std::fs::write(&args.out, &report).unwrap_or_else(|e| {
        eprintln!("error: cannot write {}: {e}", args.out);
        std::process::exit(2);
    });
    eprintln!(
        "wrote {} ({} cells, schema-validated, bit-identical across {} kernels x {} thread counts)",
        args.out,
        cells.len(),
        KERNELS.len(),
        THREADS.len(),
    );
}

fn render_report(
    args: &Args,
    attacks: &[fn() -> Workload],
    defenses: &[&str],
    fault_modes: &[&str],
    mlmc_runs: usize,
    cells: &[Cell],
) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(1024 + 256 * cells.len());
    s.push_str("{\n");
    let _ = writeln!(s, "  \"format\": \"xlmc-scenario-v1\",");
    let _ = writeln!(s, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"runs\": {},", args.runs);
    let _ = writeln!(s, "  \"mlmc_runs\": {mlmc_runs},");
    let names: Vec<String> = attacks
        .iter()
        .map(|a| format!("\"{}\"", json_escape(a().name)))
        .collect();
    let _ = writeln!(s, "  \"attacks\": [{}],", names.join(", "));
    let quoted = |xs: &[&str]| {
        xs.iter()
            .map(|x| format!("\"{x}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(s, "  \"defenses\": [{}],", quoted(defenses));
    let _ = writeln!(s, "  \"fault_modes\": [{}],", quoted(fault_modes));
    let kernels: Vec<&str> = KERNELS.iter().map(|k| k.as_arg()).collect();
    let _ = writeln!(s, "  \"kernels_checked\": [{}],", quoted(&kernels));
    let threads: Vec<String> = THREADS.iter().map(|t| t.to_string()).collect();
    let _ = writeln!(s, "  \"thread_counts_checked\": [{}],", threads.join(", "));
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.reference;
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"attack\": \"{}\",", json_escape(c.attack));
        let _ = writeln!(s, "      \"defense\": \"{}\",", c.defense);
        let _ = writeln!(s, "      \"fault_mode\": \"{}\",", c.fault_mode);
        let _ = writeln!(s, "      \"n\": {},", r.n);
        let _ = writeln!(s, "      \"ssf\": {},", num(r.ssf));
        let _ = writeln!(s, "      \"ssf_bits\": \"{:#018x}\",", r.ssf.to_bits());
        let _ = writeln!(s, "      \"sample_variance\": {},", num(r.sample_variance));
        let _ = writeln!(s, "      \"successes\": {},", r.successes);
        let _ = writeln!(s, "      \"area_overhead\": {},", num(c.area_overhead));
        let _ = writeln!(s, "      \"mlmc_ssf\": {},", num(c.mlmc_ssf));
        let _ = writeln!(s, "      \"mlmc_correction\": {},", num(c.mlmc_correction));
        let _ = writeln!(s, "      \"elapsed_s\": {}", num(c.elapsed_s));
        s.push_str(if i + 1 == cells.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// A finite `f64` as a JSON number (the report never carries non-finite
/// statistics; a NaN would fail the schema's `number` type as `null`).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}
