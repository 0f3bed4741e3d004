//! Command-line entry of the time-to-answer benchmark; see the library
//! docs for the workloads and metrics.

use std::process::ExitCode;
use xlmc_ttabench::run::{pin_lines, run, Config, Size, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: ttabench --workload answer_single|answer_mlmc|sweep_grid \
                     [--seed N] [--seconds S] [--trace 0|1] [--print-pins]";

fn parse(args: &[String]) -> Result<Option<Config>, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("not a non-negative number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Config {
        workload,
        seed,
        seconds,
        trace,
        size: Size::FULL,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            for line in pin_lines() {
                println!("{line}");
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok((outcome, conditions)) => {
            println!("{}", conditions.render());
            println!("{}", outcome.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
