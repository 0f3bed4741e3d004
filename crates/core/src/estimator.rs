//! The Monte Carlo SSF estimator and campaign driver (paper §3.3).
//!
//! `SSF = E_{T,P}[E]` is estimated by `ŜSF = (1/N) Σ w_i · e_i` with
//! importance weights `w_i = f(s_i)/g(s_i)` supplied by the sampling
//! strategy. The campaign records everything the paper's evaluation section
//! reports: the convergence trace (Figure 9(a)), the sample variance
//! (Figure 9(b)), the strike-outcome split (Figure 10(a)), the
//! analytic-vs-RTL run counts, and the per-register SSF attribution that
//! drives the hardening study.
//!
//! The driver folds chunk partials **incrementally in chunk order**, which
//! is what makes the [`crate::telemetry`] layer deterministic: progress
//! events, the `--target-eps` stopping rule, and periodic checkpoints all
//! observe the same merged prefix at a given chunk boundary regardless of
//! the thread count or kernel.

pub use crate::batch::{gate_path_bench, GatePathBench};
use crate::batch::{run_window_compiled, BatchChunkScratch};
use crate::checkpoint::{CampaignCheckpoint, MergeState};
use crate::flow::{DffMask, FaultRunner, FlowScratch, RunRecord, StrikeClass};
use crate::multilevel::{
    self, MlmcEstimator, MlmcPlan, MlmcScratch, MlmcSummary, SetToSeuMap, LEVEL_GATE, LEVEL_RTL,
};
use crate::resume::{ConclusionMemo, ResumeStats};
use crate::sampling::{draw_run, RunDraw, SamplingStrategy};
use crate::stats::RunningStats;
use crate::telemetry::{
    self, Boundary, CampaignObserver, LatencyShard, MetricsMeta, MlmcProgress, NullObserver,
    ObserverAction, PhaseTimes, ProgramStats, ProgressEvent, SchedulerStats, TelemetrySink,
};
use crate::trace::{
    self, CampaignCounters, CounterScratch, KernelCounters, ProvenanceRecord, TraceSink,
    PROVENANCE_RING_CAP,
};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::OnceLock;
use std::time::Instant;
use xlmc_fault::AttackSample;
use xlmc_soc::MpuBit;

/// Runs per shard. Fixed — independent of the thread count and of the
/// kernel — so the chunk partition, and therefore every merged statistic,
/// is a pure function of `(seed, n, strategy)`. Two full 256-lane sweeps
/// per shard: the compiled kernel stratifies a shard's runs by injection
/// frame before packing lanes, so a bigger shard means longer same-frame
/// stretches and fewer cycle-value groups per sweep. The trace stays usable
/// because `trace_points` caps its resolution anyway.
///
/// Public so acceptance harnesses can re-derive each chunk's run range
/// from [`crate::multilevel::MlmcSummary::chunk_levels`] (chunk `c`
/// covers runs `c·CHUNK_RUNS .. min((c+1)·CHUNK_RUNS, n)`).
pub const CHUNK_RUNS: usize = 512;

/// The `--target-eps` stopping rule never fires before this many runs: the
/// Welford variance of the first chunk can be degenerately small (e.g. all
/// strikes masked), which would satisfy any bound trivially.
pub const EARLY_STOP_MIN_RUNS: usize = 2 * CHUNK_RUNS;

/// Default checkpoint cadence in runs (rounded up to whole chunks).
pub const DEFAULT_CHECKPOINT_EVERY_RUNS: usize = 8 * CHUNK_RUNS;

/// Counts of strike outcomes by class (paper Figure 10(a)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Strikes with no latched error.
    pub masked: usize,
    /// Errors only in memory-type registers.
    pub memory_only: usize,
    /// At least one computation-type register in error.
    pub mixed: usize,
}

impl ClassCounts {
    /// Total strikes counted.
    pub fn total(&self) -> usize {
        self.masked + self.memory_only + self.mixed
    }

    /// `(masked, memory_only, mixed)` as fractions of the total.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.masked as f64 / t,
            self.memory_only as f64 / t,
            self.mixed as f64 / t,
        )
    }

    pub(crate) fn add(&mut self, other: &ClassCounts) {
        self.masked += other.masked;
        self.memory_only += other.memory_only;
        self.mixed += other.mixed;
    }
}

/// Why a campaign returned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StopReason {
    /// All requested runs were executed.
    #[default]
    Completed,
    /// The `--target-eps` LLN bound dropped below `1 − confidence`.
    TargetEps,
    /// A [`CampaignObserver`] returned [`ObserverAction::Abort`].
    Aborted,
}

impl StopReason {
    /// The stable string used in the metrics JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::TargetEps => "target_eps",
            StopReason::Aborted => "aborted",
        }
    }
}

/// Why a campaign ended without a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The `--checkpoint` file cannot be read, is not a valid checkpoint,
    /// was written by a different campaign, or cannot be written.
    Checkpoint {
        /// The checkpoint path.
        path: PathBuf,
        /// What is wrong with it.
        reason: String,
    },
    /// A `--metrics`, `--trace`, `--prom` or `--events` file cannot be
    /// written.
    Artifact {
        /// Which artifact: `metrics`, `trace`, `prom` or `events`.
        what: &'static str,
        /// Its path.
        path: PathBuf,
        /// What went wrong.
        reason: String,
    },
}

impl CampaignError {
    pub(crate) fn checkpoint(path: &Path, reason: String) -> Self {
        CampaignError::Checkpoint {
            path: path.to_owned(),
            reason,
        }
    }

    pub(crate) fn artifact(what: &'static str, path: &Path, e: &std::io::Error) -> Self {
        CampaignError::Artifact {
            what,
            path: path.to_owned(),
            reason: format!("cannot be written: {e}"),
        }
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Checkpoint { path, reason } => {
                write!(f, "checkpoint {} {reason}", path.display())
            }
            CampaignError::Artifact { what, path, reason } => {
                write!(f, "{what} {} {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// Whether a temp-and-rename write of `path` can start: its temp file
/// (`path` with extension `tmp`, as every artifact writer uses) can be
/// created, after creating the missing directories above it when
/// `create_dirs` (the trace writer does so itself). The probe never
/// truncates a file, and removes the temp file only when it made it.
/// Binaries call it on their own output paths before any work.
pub fn probe_writable(path: &Path, create_dirs: bool) -> std::io::Result<()> {
    if let Some(dir) = path
        .parent()
        .filter(|d| create_dirs && !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("tmp");
    let existed = tmp.symlink_metadata().is_ok();
    std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(&tmp)?;
    if !existed {
        std::fs::remove_file(&tmp)?;
    }
    Ok(())
}

/// Check every artifact path of `options` before the first chunk runs, so
/// an unwritable one ends the campaign at once with an error naming it.
/// The binaries run the same check on their arguments, before any work
/// ([`CampaignOptions::from_args_with`]).
fn check_artifact_paths(options: &CampaignOptions) -> Result<(), CampaignError> {
    if let Some(path) = &options.checkpoint_path {
        probe_writable(path, false)
            .map_err(|e| CampaignError::checkpoint(path, format!("cannot be written: {e}")))?;
    }
    for (what, path) in [
        ("metrics", &options.metrics_path),
        ("trace", &options.trace_path),
        ("prom", &options.prom_path),
        ("events", &options.events_path),
    ] {
        if let Some(path) = path {
            probe_writable(path, what == "trace")
                .map_err(|e| CampaignError::artifact(what, path, &e))?;
        }
    }
    Ok(())
}

/// The result of one sampling campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Strategy name.
    pub strategy: String,
    /// Number of samples folded into the estimate. Equals the requested
    /// run count unless the campaign stopped early (see [`StopReason`]).
    pub n: usize,
    /// The SSF estimate `ŜSF`.
    pub ssf: f64,
    /// Sample variance of the weighted indicator `w · e` (the paper's
    /// Figure 9(b) metric).
    pub sample_variance: f64,
    /// The importance-sampling effective sample size `(Σw)²/Σw²` over the
    /// drawn weights (equals `n` when every weight is 1, i.e. under the
    /// baseline random strategy).
    pub ess: f64,
    /// Number of successful attacks (unweighted).
    pub successes: usize,
    /// Running-estimate trace `(n, ŜSF_n)` for convergence plots.
    pub trace: Vec<(usize, f64)>,
    /// Strike-class split.
    pub class_counts: ClassCounts,
    /// Runs settled by the analytical evaluator.
    pub analytic_runs: usize,
    /// Runs requiring RTL resume.
    pub rtl_runs: usize,
    /// Weighted success mass attributed to each faulty register. Ordered by
    /// bit so reports and serialized results are stable run-to-run.
    pub attribution: BTreeMap<MpuBit, f64>,
    /// Why the campaign returned.
    pub stop: StopReason,
    /// Kernel-invariant hot-path counters (chunk-local memo model; see
    /// [`crate::trace`]). Identical across kernels and thread counts.
    pub counters: CampaignCounters,
    /// Kernel-shape counters (lane occupancy, frame strata, gate visits).
    /// These legitimately differ between the scalar and compiled kernels.
    pub kernel_counters: KernelCounters,
    /// Index of the first successful run, `None` when no run succeeded.
    /// Like every statistic, a pure function of `(seed, n, strategy)`.
    /// Under MLMC this is gate-level: the first success of a *coupled*
    /// chunk (level-0 successes are not attributable). `--replay` is
    /// level-aware: a run that a level-0 chunk evaluated is re-derived via
    /// [`crate::multilevel::replay_run_level0`], not the gate flow.
    pub first_success: Option<u64>,
    /// Which estimator produced this result.
    pub estimator: EstimatorKind,
    /// Per-level MLMC accounting (`None` under the single estimator).
    pub mlmc: Option<MlmcSummary>,
}

impl CampaignResult {
    /// The LLN bound on `Pr[|ŜSF − SSF| ≥ eps]` after `n` samples.
    pub fn lln_bound(&self, eps: f64) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        (self.sample_variance / (self.n as f64 * eps * eps)).min(1.0)
    }
}

/// Which per-chunk executor the campaign engine uses.
///
/// Both kernels produce bit-identical [`CampaignResult`]s (the lane
/// packing is transparent down to the last `f64` ulp); `Compiled` is the
/// default because it amortizes each transient sweep over up to 256 runs
/// through the levelized straight-line
/// [`GateProgram`](xlmc_netlist::GateProgram) instead of per-cell
/// worklist dispatch. `Scalar` is the readable reference the compiled
/// kernel is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CampaignKernel {
    /// One run at a time through [`FaultRunner::run_with`].
    Scalar,
    /// Up to 256 runs per compiled straight-line sweep
    /// (`TransientSim::strike_compiled_with`).
    #[default]
    Compiled,
}

impl CampaignKernel {
    /// The `--kernel` argument spelling (also used in checkpoint headers).
    pub fn as_arg(&self) -> &'static str {
        match self {
            CampaignKernel::Scalar => "scalar",
            CampaignKernel::Compiled => "compiled",
        }
    }

    /// Monte Carlo runs packed per transient pass.
    pub fn lane_width(&self) -> usize {
        match self {
            CampaignKernel::Scalar => 1,
            CampaignKernel::Compiled => xlmc_gatesim::WIDE_LANES,
        }
    }
}

/// Which SSF estimator the campaign runs.
///
/// `Single` is the paper's estimator: every run pays the gate-accurate
/// flow. `Mlmc` is the two-level telescoped estimator
/// `E[f] = E[f_rtl] + E[f_gate − f_rtl]` from [`crate::multilevel`]: most
/// chunks run the cheap pure-RTL level-0 sampler, and a measured fraction
/// run coupled level-1 pairs whose signed difference corrects the cheap
/// level's bias. Both estimators are unbiased; MLMC reaches the same
/// `--target-eps` goal with far fewer gate-level runs. MLMC results are
/// bit-identical at any thread count and — because its per-level executors
/// are scalar — under both kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorKind {
    /// Gate-accurate flow on every run (the paper's estimator).
    #[default]
    Single,
    /// Two-level multilevel Monte Carlo (RTL-cheap / gate-accurate).
    Mlmc,
}

impl EstimatorKind {
    /// The `--estimator` argument spelling (also used in checkpoint and
    /// metrics headers).
    pub fn as_arg(&self) -> &'static str {
        match self {
            EstimatorKind::Single => "single",
            EstimatorKind::Mlmc => "mlmc",
        }
    }
}

/// Knobs of the campaign engine, shared by every figure binary.
///
/// The thread count and the kernel are pure scheduling choices: campaign
/// results are bit-identical at any `threads` value and under either
/// kernel (see [`crate::rng`] and [`CampaignKernel`]). The telemetry knobs
/// (`metrics_path`, `checkpoint_path`) never change the statistics either;
/// `target_eps` changes only *where* the campaign stops, and it does so
/// deterministically (the stopping decision is a function of the merged
/// chunk prefix, which is schedule-independent).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOptions {
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Upper bound on convergence-trace points (the trace records the
    /// running estimate at shard boundaries, downsampled to this many).
    pub trace_points: usize,
    /// The per-chunk executor.
    pub kernel: CampaignKernel,
    /// The SSF estimator (`--estimator single|mlmc`).
    pub estimator: EstimatorKind,
    /// Adaptive stopping: halt once the §3.3 LLN bound at this `eps`
    /// drops to `1 − target_confidence` (checked at chunk boundaries,
    /// never before [`EARLY_STOP_MIN_RUNS`] runs). `None` disables.
    pub target_eps: Option<f64>,
    /// Confidence level for the stopping rule (default 0.95).
    pub target_confidence: f64,
    /// Where to write the campaign metrics JSON (`--metrics`).
    pub metrics_path: Option<PathBuf>,
    /// Where to read/write the campaign checkpoint (`--checkpoint`). If
    /// the file exists, the campaign resumes from it.
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint cadence in runs, rounded up to whole chunks
    /// (`--checkpoint-every`).
    pub checkpoint_every_runs: usize,
    /// Where to write the Chrome trace-event JSON (`--trace`): spans,
    /// counters and provenance records, openable in Perfetto.
    pub trace_path: Option<PathBuf>,
    /// Re-execute this run solo after the campaign (`--replay N`) under
    /// full span tracing, asserting its verdict matches the campaign's
    /// provenance record.
    pub replay: Option<u64>,
    /// Where to append the streaming lifecycle event log (`--events`):
    /// one JSON object per line, flushed per line, pinned by
    /// `schemas/events.schema.json`. A pure observer — results are
    /// bit-identical with the log on or off.
    pub events_path: Option<PathBuf>,
    /// Where to write the Prometheus text exposition (`--prom`): the last
    /// progress record rendered atomically (temp + rename) at checkpoint
    /// cadence and once at the end. Also a pure observer.
    pub prom_path: Option<PathBuf>,
    /// Stall watchdog budget in seconds (`--stall-timeout`): if the
    /// multi-thread merge loop sees no chunk within this budget, a
    /// `worker_stalled` event with a per-worker state dump is emitted
    /// (requires `--events`; `0` disables).
    pub stall_timeout_s: f64,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            trace_points: 200,
            kernel: CampaignKernel::default(),
            estimator: EstimatorKind::default(),
            target_eps: None,
            target_confidence: 0.95,
            metrics_path: None,
            checkpoint_path: None,
            checkpoint_every_runs: DEFAULT_CHECKPOINT_EVERY_RUNS,
            trace_path: None,
            replay: None,
            events_path: None,
            prom_path: None,
            stall_timeout_s: 30.0,
        }
    }
}

/// A flag a binary owns next to the engine's: its spelling and whether it
/// takes a value ([`CampaignOptions::from_args_with`]).
pub type BinaryFlag = (&'static str, bool);

impl CampaignOptions {
    /// Options with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Options with an explicit kernel.
    pub fn with_kernel(kernel: CampaignKernel) -> Self {
        Self {
            kernel,
            ..Self::default()
        }
    }

    /// Parse the engine flags from the process arguments of a binary that
    /// owns no flag of its own (the figure binaries and examples).
    /// `--help`/`-h` prints the flag table and exits 0; an invalid value
    /// for an engine flag, or any argument the engine does not own, prints
    /// an error naming it and exits with status 2 before any work.
    pub fn from_args() -> Self {
        Self::from_args_with(&[])
    }

    /// [`from_args`](Self::from_args) for a binary with flags of its own:
    /// `own` lists them with whether each takes a value. The binary reads
    /// them itself; every other argument the engine does not own exits 2.
    /// So does an output path that cannot be written (a checkpoint,
    /// metrics, prom or events file in a missing directory, a trace whose
    /// directory cannot be made): the binary tags it per campaign in the
    /// same directory, so the untagged path answers for every campaign.
    pub fn from_args_with(own: &[BinaryFlag]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", Self::usage());
            std::process::exit(0);
        }
        let checked = Self::parse(args, Some(own)).and_then(|opts| {
            check_artifact_paths(&opts)
                .map(|()| opts)
                .map_err(|e| e.to_string())
        });
        match checked {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Every value-taking flag [`parse_args`](Self::parse_args) accepts.
    /// The `--help` table and the contract test iterate this list, so a
    /// flag added to the parser without help text fails the build's tests.
    pub const VALUE_FLAGS: &'static [&'static str] = &[
        "--threads",
        "--kernel",
        "--estimator",
        "--target-eps",
        "--target-confidence",
        "--metrics",
        "--checkpoint",
        "--checkpoint-every",
        "--trace",
        "--replay",
        "--events",
        "--prom",
        "--stall-timeout",
    ];

    /// Flags the engine no longer has. They are rejected rather than
    /// skipped, since a skipped flag would leave its value to the caller as
    /// a positional argument.
    pub const REMOVED_FLAGS: &'static [&'static str] = &["--fast-forward"];

    /// The `--help` flag table: every flag the campaign engine owns.
    pub fn usage() -> String {
        concat!(
            "campaign engine flags (shared by every figure/bench binary):\n",
            "  --threads N|auto       worker threads; 0 or \"auto\" = one per core\n",
            "                         (default 1)\n",
            "  --kernel scalar|compiled\n",
            "                         per-chunk executor (default compiled); results\n",
            "                         are bit-identical under both\n",
            "  --estimator single|mlmc\n",
            "                         gate-accurate single-level estimator, or the\n",
            "                         two-level RTL-cheap/gate-accurate multilevel\n",
            "                         Monte Carlo estimator (default single)\n",
            "  --target-eps X         stop once the LLN bound at eps X drops to\n",
            "                         1 - confidence (checked at chunk boundaries)\n",
            "  --target-confidence C  confidence for --target-eps, in (0, 1)\n",
            "                         (default 0.95)\n",
            "  --metrics PATH         write the campaign metrics JSON\n",
            "                         (xlmc-metrics-v13, schemas/metrics.schema.json)\n",
            "  --events PATH          stream the lifecycle event log as JSONL\n",
            "                         (schemas/events.schema.json), one flushed line\n",
            "                         per event; results are bit-identical on or off\n",
            "  --prom PATH            write the Prometheus text exposition, rewritten\n",
            "                         atomically at checkpoint cadence (at most\n",
            "                         once a second) and at the end\n",
            "  --stall-timeout SECS   emit a worker_stalled event when the threaded\n",
            "                         merge loop sees no chunk for SECS seconds\n",
            "                         (needs --events; 0 disables; default 30)\n",
            "  --checkpoint PATH      read/write the campaign checkpoint; an\n",
            "                         existing file resumes the campaign\n",
            "  --checkpoint-every N   checkpoint cadence in runs, rounded up to\n",
            "                         whole chunks (default 4096)\n",
            "  --trace PATH           write Chrome trace-event JSON (spans, hot-path\n",
            "                         counters, per-run provenance) for Perfetto\n",
            "  --replay N             after the campaign, re-execute run N solo under\n",
            "                         tracing and check its verdict against the\n",
            "                         campaign's provenance record\n",
            "  --help, -h             print this table and exit\n",
            "Any other argument is an error unless the binary owns it.",
        )
        .to_owned()
    }

    /// Parse the engine flags — `--threads N|auto`, `--kernel
    /// scalar|compiled`, `--target-eps X`, `--target-confidence C`,
    /// `--metrics PATH`, `--checkpoint PATH`, `--checkpoint-every N`,
    /// `--trace PATH`, `--replay N`, `--events PATH`, `--prom PATH`,
    /// `--stall-timeout SECS` (each also accepting the `--flag=value`
    /// spelling) — from an argument list, skipping flags it does not own
    /// and rejecting the [`REMOVED_FLAGS`](Self::REMOVED_FLAGS).
    pub fn parse_args<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        Self::parse(args, None)
    }

    /// [`parse_args`](Self::parse_args), except that with `own` set every
    /// argument that is neither an engine flag nor one of `own` (with its
    /// value) is an error naming it.
    fn parse<I>(args: I, own: Option<&[BinaryFlag]>) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut opts = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let (flag, mut inline) = match arg.split_once('=') {
                Some((f, v)) if f.starts_with("--") => (f.to_owned(), Some(v.to_owned())),
                _ => (arg, None),
            };
            if Self::REMOVED_FLAGS.contains(&flag.as_str()) {
                return Err(format!("unknown flag {flag}"));
            }
            if !Self::VALUE_FLAGS.contains(&flag.as_str()) {
                let Some(own) = own else { continue };
                match own.iter().find(|(f, _)| *f == flag) {
                    Some((_, true)) if inline.is_none() => {
                        it.next()
                            .ok_or_else(|| format!("{flag} requires a value"))?;
                    }
                    Some(_) => {}
                    None if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                    None => return Err(format!("unexpected argument {flag}")),
                }
                continue;
            }
            let value = inline
                .take()
                .or_else(|| it.next())
                .ok_or_else(|| format!("{flag} requires a value"))?;
            match flag.as_str() {
                "--threads" => {
                    opts.threads = if value == "auto" {
                        0
                    } else {
                        value.parse().map_err(|_| {
                            format!(
                                "invalid --threads value {value:?}: expected a non-negative \
                                 integer or \"auto\""
                            )
                        })?
                    };
                }
                "--kernel" => opts.set_kernel_arg(&value)?,
                "--estimator" => {
                    opts.estimator = match value.as_str() {
                        "single" => EstimatorKind::Single,
                        "mlmc" => EstimatorKind::Mlmc,
                        _ => {
                            return Err(format!(
                                "invalid --estimator value {value:?}: expected \"single\" or \
                                 \"mlmc\""
                            ))
                        }
                    };
                }
                "--target-eps" => {
                    let eps: f64 = value.parse().map_err(|_| {
                        format!("invalid --target-eps value {value:?}: expected a number")
                    })?;
                    if !eps.is_finite() || eps <= 0.0 {
                        return Err(format!(
                            "invalid --target-eps value {value:?}: must be a positive number"
                        ));
                    }
                    opts.target_eps = Some(eps);
                }
                "--target-confidence" => {
                    let c: f64 = value.parse().map_err(|_| {
                        format!("invalid --target-confidence value {value:?}: expected a number")
                    })?;
                    if !(c > 0.0 && c < 1.0) {
                        return Err(format!(
                            "invalid --target-confidence value {value:?}: must be in (0, 1)"
                        ));
                    }
                    opts.target_confidence = c;
                }
                "--metrics" => opts.metrics_path = Some(PathBuf::from(value)),
                "--checkpoint" => opts.checkpoint_path = Some(PathBuf::from(value)),
                "--checkpoint-every" => {
                    let every: usize = value.parse().map_err(|_| {
                        format!(
                            "invalid --checkpoint-every value {value:?}: expected a positive integer"
                        )
                    })?;
                    if every == 0 {
                        return Err(
                            "invalid --checkpoint-every value \"0\": must be at least 1".to_owned()
                        );
                    }
                    opts.checkpoint_every_runs = every;
                }
                "--trace" => opts.trace_path = Some(PathBuf::from(value)),
                "--replay" => {
                    opts.replay = Some(value.parse().map_err(|_| {
                        format!("invalid --replay value {value:?}: expected a run index")
                    })?);
                }
                "--events" => opts.events_path = Some(PathBuf::from(value)),
                "--prom" => opts.prom_path = Some(PathBuf::from(value)),
                "--stall-timeout" => {
                    let secs: f64 = value.parse().map_err(|_| {
                        format!("invalid --stall-timeout value {value:?}: expected seconds")
                    })?;
                    if !secs.is_finite() || secs < 0.0 {
                        return Err(format!(
                            "invalid --stall-timeout value {value:?}: must be a non-negative \
                             number of seconds"
                        ));
                    }
                    opts.stall_timeout_s = secs;
                }
                _ => unreachable!("flag list and match arms are in sync"),
            }
        }
        Ok(opts)
    }

    fn set_kernel_arg(&mut self, v: &str) -> Result<(), String> {
        self.kernel = match v {
            "scalar" => CampaignKernel::Scalar,
            "compiled" => CampaignKernel::Compiled,
            _ => {
                return Err(format!(
                    "invalid --kernel value {v:?}: expected \"scalar\" or \"compiled\""
                ))
            }
        };
        Ok(())
    }

    /// The concrete worker count (resolving `0` to the core count).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Everything one shard of runs accumulates; merged in shard order.
#[derive(Debug, Default)]
pub(crate) struct ChunkPartial {
    /// The chunk's level tag: [`multilevel::LEVEL_GATE`] for gate-accurate
    /// chunks (every single-estimator chunk, and MLMC's coupled
    /// correction chunks), [`multilevel::LEVEL_RTL`] for MLMC's cheap
    /// level-0 chunks. The merge keys its per-level accumulators on it, so
    /// checkpoint/resume stays bit-deterministic across mixed-level runs.
    pub(crate) level: u8,
    /// The chunk's primary Welford stream: `w·e` for gate chunks, the
    /// signed correction `w·(e_gate − e_rtl)` for MLMC level-1 chunks.
    pub(crate) stats: RunningStats,
    /// The gate marginal `w·e_gate` (MLMC level-1 chunks only).
    pub(crate) gate_stats: RunningStats,
    /// The RTL marginal `w·e_rtl` (MLMC level-1 chunks only).
    pub(crate) rtl_stats: RunningStats,
    pub(crate) class_counts: ClassCounts,
    pub(crate) analytic_runs: usize,
    pub(crate) rtl_runs: usize,
    pub(crate) successes: usize,
    pub(crate) attribution: ChunkAttribution,
    /// Σw over the shard's drawn weights (for the effective sample size).
    pub(crate) w_sum: f64,
    /// Σw² over the shard's drawn weights.
    pub(crate) w_sq_sum: f64,
    /// Kernel-invariant hot-path counters for this shard.
    pub(crate) counters: CampaignCounters,
    /// Kernel-shape counters for this shard.
    pub(crate) kernel_counters: KernelCounters,
    /// First successful run index within this shard.
    pub(crate) first_success: Option<u64>,
    /// Per-run provenance, in run-index order (empty unless recording).
    pub(crate) provenance: Vec<ProvenanceRecord>,
    /// Worker-side latency observations (chunk wall time, kernel sweeps,
    /// snapshot restores). Pure telemetry: taken out before the fold and
    /// absorbed into the merger's telemetry sink, never into the statistics.
    pub(crate) latency: LatencyShard,
}

/// One chunk's per-register SSF attribution: `Σ w` over the chunk's
/// successful runs per faulty register, in a slab indexed by DFF index.
/// Each sum adds in run order, like the campaign map it merges into, and a
/// success with weight 0 still creates its register's entry.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct ChunkAttribution {
    sums: Vec<f64>,
    /// The registers with an entry, in first-seen order, with their bits.
    touched: Vec<(usize, MpuBit)>,
    seen: DffMask,
}

impl ChunkAttribution {
    /// Add one successful run's weight to each of its faulty registers;
    /// `dff_bits` names the bit of each DFF index.
    pub(crate) fn add(&mut self, regs: DffMask, w: f64, dff_bits: &[MpuBit]) {
        if self.sums.is_empty() {
            self.sums.resize(DffMask::CAPACITY, 0.0);
        }
        for i in regs.iter() {
            if !self.seen.contains(i) {
                self.seen.insert(i);
                self.touched.push((i, dff_bits[i]));
            }
            self.sums[i] += w;
        }
    }

    /// Fold the chunk's sums into the campaign's map.
    pub(crate) fn merge_into(&self, map: &mut BTreeMap<MpuBit, f64>) {
        for &(i, bit) in &self.touched {
            *map.entry(bit).or_insert(0.0) += self.sums[i];
        }
    }
}

/// A chunk's runs as both kernels keep them for [`fold_chunk`]. `draws`
/// and `te` hold the last chunk drawn: each run's draw and injection cycle
/// `T_e` (`None` out of the run). The rest is the fold state of every run
/// kept, in run order: its weight and record and, when provenance is
/// recorded, its sample and `T_e`. The scalar kernel keeps its chunk; the
/// compiled kernel keeps a window of chunks end to end, eight bytes of
/// weight and eight of record a run.
#[derive(Debug, Default)]
pub(crate) struct ChunkRuns {
    pub(crate) draws: Vec<RunDraw>,
    pub(crate) te: Vec<Option<u64>>,
    pub(crate) w: Vec<f64>,
    pub(crate) records: Vec<RunRecord>,
    pub(crate) traced: Vec<(AttackSample, Option<u64>)>,
}

impl ChunkRuns {
    /// Forget the fold state of every run (keeps allocations).
    pub(crate) fn clear(&mut self) {
        self.w.clear();
        self.records.clear();
        self.traced.clear();
    }

    /// Keep the weights of the last chunk drawn and, when provenance is
    /// recorded, its samples and `T_e`, which must be known.
    pub(crate) fn keep_drawn(&mut self, record_provenance: bool) {
        self.w.extend(self.draws.iter().map(|d| d.w));
        if record_provenance {
            let te = self.te.iter().copied();
            self.traced
                .extend(self.draws.iter().map(|d| d.sample).zip(te));
        }
    }
}

/// A chunk's cycle-memo counts, from its runs' `T_e` alone: the runs in
/// the run, and how many distinct `T_e` they hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ChunkCycles {
    in_run: usize,
    distinct: usize,
}

impl ChunkCycles {
    /// `in_run` runs in the run, at `distinct` distinct `T_e`.
    pub(crate) fn new(in_run: usize, distinct: usize) -> Self {
        Self { in_run, distinct }
    }

    /// The counts of a chunk's `te`, marked in `ctr`'s bitset.
    pub(crate) fn of(ctr: &mut CounterScratch, te: &[Option<u64>]) -> Self {
        ctr.begin_chunk();
        Self {
            in_run: te.iter().filter(|t| t.is_some()).count(),
            distinct: ctr.distinct_cycles(te),
        }
    }
}

/// The gate-level partial of chunk `chunk`, whose runs are `runs[range]`,
/// the first of them run `start`, with cycle-memo counts `cycles`. Both
/// kernels fold every chunk through this one accumulator, so every
/// campaign statistic and counter is the same function of the runs in
/// either kernel.
///
/// Only the floating-point sums depend on the order of the runs: the
/// Welford stream, Σw and Σw² take the runs in run-index order, and so
/// does each register's attribution sum. Everything else is a count over
/// the chunk: the strike classes, the runs concluded analytically, the
/// conclusion-memo hits and misses (a miss is a run that is its chunk's
/// first of its key), and the RTL conclusions, the first of which clones
/// the SoC and every later one restores it. Which run is a key's first is
/// learnt here, by stamping each concluded run's slot in `memo`, the
/// conclusion memo its record names, in run order
/// ([`ConclusionMemo::stamp`]); so it does not depend on the order the
/// runs were concluded in. A success reads its registers from `memo`.
/// Pulse and kernel counters are left to the kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold_chunk(
    runs: &ChunkRuns,
    range: Range<usize>,
    start: u64,
    cycles: ChunkCycles,
    memo: &mut ConclusionMemo,
    chunk: u32,
    dff_bits: &[MpuBit],
    record_provenance: bool,
) -> ChunkPartial {
    let mut p = ChunkPartial {
        level: multilevel::LEVEL_GATE,
        ..ChunkPartial::default()
    };
    let (w, records) = (&runs.w[range.clone()], &runs.records[range.clone()]);
    let m = records.len();
    debug_assert_eq!(w.len(), m, "one weight per record");
    let (mut masked, mut memory_only) = (0, 0);
    let (mut analytic, mut first, mut first_analytic) = (0, 0, 0);
    for r in records {
        masked += usize::from(r.class == StrikeClass::Masked);
        memory_only += usize::from(r.class == StrikeClass::MemoryOnly);
        analytic += usize::from(r.analytic);
        let f = memo.stamp(r.slot, chunk);
        first += usize::from(f);
        first_analytic += usize::from(f & r.analytic);
    }
    for (i, (r, &w)) in records.iter().zip(w).enumerate() {
        p.w_sum += w;
        p.w_sq_sum += w * w;
        let x = if r.success {
            if p.first_success.is_none() {
                p.first_success = Some(start + i as u64);
            }
            p.successes += 1;
            p.attribution.add(memo.slot(r.slot).regs, w, dff_bits);
            w
        } else {
            0.0
        };
        p.stats.push(x);
    }
    // Only a concluded key is probed, so masked runs are never first.
    let concluded = m - masked;
    let rtl_first = first - first_analytic;
    p.class_counts = ClassCounts {
        masked,
        memory_only,
        mixed: concluded - memory_only,
    };
    p.analytic_runs = analytic;
    p.rtl_runs = concluded - analytic;
    let c = &mut p.counters;
    c.out_of_run = m - cycles.in_run;
    c.cycle_memo_misses = cycles.distinct;
    c.cycle_memo_hits = cycles.in_run - cycles.distinct;
    c.conclusion_memo_misses = first;
    c.conclusion_memo_hits = concluded - first;
    c.conclusions_analytic = first_analytic;
    c.conclusions_rtl = rtl_first;
    c.soc_clones = rtl_first.min(1);
    c.soc_restores = rtl_first - c.soc_clones;
    if record_provenance {
        let runs = runs.traced[range].iter().zip(w).zip(records);
        p.provenance.extend(
            (start..)
                .zip(runs)
                .map(|(i, ((&(s, te), &w), r))| ProvenanceRecord {
                    run_index: i,
                    t: s.t,
                    center: s.center,
                    radius: s.radius,
                    phase: s.phase,
                    te,
                    weight: w,
                    class: r.class,
                    success: r.success,
                    analytic: r.analytic,
                }),
        );
    }
    p
}

/// The per-run fold [`fold_chunk`] replaced: one run's record into the
/// partial, every counter bumped run by run through
/// [`CounterScratch::record_run`]. Kept as the test oracle of the chunk
/// fold; `regs` are the run's post-hardening registers and `first` says
/// whether the run is its chunk's first of its conclusion key.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold_run(
    p: &mut ChunkPartial,
    ctr: &mut CounterScratch,
    run_index: u64,
    draw: &RunDraw,
    te: Option<u64>,
    r: &RunRecord,
    regs: DffMask,
    first: bool,
    dff_bits: &[MpuBit],
    record_provenance: bool,
) {
    use crate::flow::StrikeClass;
    match r.class {
        StrikeClass::Masked => p.class_counts.masked += 1,
        StrikeClass::MemoryOnly => p.class_counts.memory_only += 1,
        StrikeClass::Mixed => p.class_counts.mixed += 1,
    }
    if r.class != StrikeClass::Masked {
        if r.analytic {
            p.analytic_runs += 1;
        } else {
            p.rtl_runs += 1;
        }
    }
    ctr.record_run(&mut p.counters, te, regs, first, r.analytic, 0);
    p.w_sum += draw.w;
    p.w_sq_sum += draw.w * draw.w;
    let x = if r.success {
        p.successes += 1;
        if p.first_success.is_none() {
            p.first_success = Some(run_index);
        }
        p.attribution.add(regs, draw.w, dff_bits);
        draw.w
    } else {
        0.0
    };
    p.stats.push(x);
    if record_provenance {
        p.provenance.push(ProvenanceRecord {
            run_index,
            t: draw.sample.t,
            center: draw.sample.center,
            radius: draw.sample.radius,
            phase: draw.sample.phase,
            te,
            weight: draw.w,
            class: r.class,
            success: r.success,
            analytic: r.analytic,
        });
    }
}

/// Execute runs `start..end` of the campaign, one at a time, on the scalar
/// kernel. Each run's generator comes from `(seed, run_index)` alone, so a
/// shard computes the same partial on any worker. The chunk's phases are
/// timed as whole laps: the draw, every run's strike and conclusion, and
/// the fold.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    start: usize,
    end: usize,
    scratch: &mut FlowScratch,
    runs: &mut ChunkRuns,
    memo: &mut ConclusionMemo,
    chunk: u32,
    ctr: &mut CounterScratch,
    record_provenance: bool,
) -> ChunkPartial {
    let mut clock = Instant::now();
    let mut phases = PhaseTimes::default();
    strategy.draw_chunk(seed, start as u64..end as u64, &mut runs.draws);
    phases.draw_s = lap(&mut clock);
    runs.clear();
    let ChunkRuns {
        draws, te, records, ..
    } = runs;
    te.clear();
    let (mut pulses, mut gates) = (0, 0);
    for d in draws.iter_mut() {
        let v = runner.run_shared(&d.sample, &mut d.rng, scratch, Some(memo));
        pulses += v.pulses_propagated;
        gates += v.gates_visited;
        te.push(v.injection_cycle);
        records.push(v.record);
    }
    phases.conclude_s = lap(&mut clock);
    runs.keep_drawn(record_provenance);
    let cycles = ChunkCycles::of(ctr, &runs.te);
    let dff_bits = runner.model.mpu.dff_bits();
    let range = 0..runs.records.len();
    let mut p = fold_chunk(
        runs,
        range,
        start as u64,
        cycles,
        memo,
        chunk,
        dff_bits,
        record_provenance,
    );
    p.counters.pulses_propagated = pulses;
    p.kernel_counters.gates_visited = gates;
    phases.fold_s = lap(&mut clock);
    p.latency.phases = phases;
    p
}

/// The seconds since `clock`, which moves to now.
pub(crate) fn lap(clock: &mut Instant) -> f64 {
    let now = Instant::now();
    let s = now.duration_since(*clock).as_secs_f64();
    *clock = now;
    s
}

/// The scalar chunk executor, exposed to the crate's lane-equivalence
/// tests as the reference implementation.
#[cfg(test)]
pub(crate) fn scalar_chunk_for_tests(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    start: usize,
    end: usize,
    scratch: &mut FlowScratch,
) -> ChunkPartial {
    let mut ctr = CounterScratch::default();
    let mut memo = ConclusionMemo::default();
    let mut runs = ChunkRuns::default();
    run_chunk(
        runner, strategy, seed, start, end, scratch, &mut runs, &mut memo, 0, &mut ctr, false,
    )
}

/// One campaign worker's state: the scratch of every chunk executor, the
/// worker's conclusion memo, its chunk-counter scratch, and the runs of
/// every partial it produced.
#[derive(Default)]
struct Worker {
    flow: FlowScratch,
    runs: ChunkRuns,
    batch: BatchChunkScratch,
    mlmc: MlmcScratch,
    memo: ConclusionMemo,
    ctr: CounterScratch,
    executed_runs: u64,
}

impl Worker {
    /// The worker's schedule-dependent totals: its snapshot-cache counters,
    /// its memos' counters as a one-worker [`SchedulerStats`], and the runs
    /// of the partials it produced.
    fn totals(&self) -> (ResumeStats, SchedulerStats, u64) {
        let mut ff = self.flow.resume_stats();
        ff.add(&self.batch.resume_stats());
        ff.add(&self.mlmc.resume_stats());
        let (memo_hits, memo_misses) = self.memo.probe_stats();
        let memos = SchedulerStats {
            memo_hits,
            memo_misses,
            strike_memo_hits: self.batch.strike_memo_hits(),
            handle_recalls: self.batch.handle_recalls(),
            ..SchedulerStats::default()
        };
        (ff, memos, self.executed_runs)
    }
}

/// Run a campaign of `n` attacks with the given strategy and seed
/// (sequential; see [`run_campaign_with`] for the threaded form).
pub fn run_campaign(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    n: usize,
    seed: u64,
) -> CampaignResult {
    run_campaign_with(runner, strategy, n, seed, &CampaignOptions::default())
}

/// Run a campaign of `n` attacks across `options.threads` workers.
///
/// The runs are split into fixed-size shards (`CHUNK_RUNS`); workers
/// steal shard indices from a shared counter, and the partials are merged
/// **in shard order** with Chan's parallel mean/variance combine
/// ([`RunningStats::merge`]). Because each run's RNG derives from
/// `(seed, run_index)` and the partition never depends on the schedule, the
/// returned result is bit-identical at any thread count.
///
/// # Panics
///
/// Panics with the [`CampaignError`] when `options.checkpoint_path` names
/// a checkpoint that cannot be read, does not match this campaign or
/// cannot be written, or when an artifact file cannot be written;
/// [`run_campaign_observed`] returns it instead.
pub fn run_campaign_with(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    n: usize,
    seed: u64,
    options: &CampaignOptions,
) -> CampaignResult {
    run_campaign_observed(runner, strategy, n, seed, options, &mut NullObserver)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The merge side of a campaign: the checkpoint it folds into (header and
/// merged prefix), the telemetry fan-out and the provenance sinks. Every
/// chunk partial, at every thread count, goes through [`Merger::merge`] in
/// chunk order.
struct Merger<'a> {
    ck: CampaignCheckpoint,
    options: &'a CampaignOptions,
    /// Where the merge step publishes the MLMC plan once the pilot is
    /// folded; workers claiming a post-pilot chunk wait on it.
    plan_cell: &'a OnceLock<MlmcPlan>,
    telemetry: TelemetrySink,
    /// The merged prefix this invocation resumed from, in chunks and runs.
    start_chunk: usize,
    resumed_runs: usize,
    ring: VecDeque<ProvenanceRecord>,
    success_log: Vec<ProvenanceRecord>,
    replay_capture: Option<ProvenanceRecord>,
}

impl Merger<'_> {
    /// Merge the partial of `chunk`, the next chunk in order: fold its
    /// statistics, absorb its latency, publish the MLMC plan once the pilot
    /// is folded, absorb its provenance and run the boundary. Returns why
    /// the campaign stops at this boundary, if it does.
    fn merge(
        &mut self,
        chunk: usize,
        mut p: ChunkPartial,
        observer: &mut dyn CampaignObserver,
    ) -> Result<Option<StopReason>, CampaignError> {
        debug_assert_eq!(chunk, self.ck.state.merged_chunks, "chunks merge in order");
        let prov = std::mem::take(&mut p.provenance);
        let latency = std::mem::take(&mut p.latency);
        let (level, stats) = (p.level, p.stats);
        let end = ((chunk + 1) * CHUNK_RUNS).min(self.ck.requested_runs);
        self.ck.state.fold(p, end);
        self.telemetry.latency.absorb(&latency);
        if let Some(ratio) = self.ck.state.plan_ratio {
            let _ = self.plan_cell.set(MlmcPlan { ratio });
        }
        absorb_provenance(
            prov,
            level,
            self.options.replay,
            &mut self.ring,
            &mut self.success_log,
            &mut self.replay_capture,
        );
        self.boundary(chunk, level, stats, observer)
    }

    /// Everything that happens at a merged chunk boundary, after the fold.
    /// One [`ProgressEvent`] is built first; the telemetry sink keeps it
    /// and the observer and the stopping rule read it. Then a due
    /// checkpoint is written (and at the same cadence the event log is
    /// flushed and the prom exposition rewritten). A stop decision precedes
    /// the checkpoint write, so a checkpoint's cursor never passes the
    /// first stopping boundary and a resumed campaign re-derives the exact
    /// same stop point.
    fn boundary(
        &mut self,
        chunk: usize,
        level: u8,
        stats: RunningStats,
        observer: &mut dyn CampaignObserver,
    ) -> Result<Option<StopReason>, CampaignError> {
        let options = self.options;
        let state = &self.ck.state;
        let elapsed_s = self.telemetry.elapsed_s();
        let runs_done = state.runs_merged();
        let sample_variance = state.current_sample_variance();
        let event = ProgressEvent {
            runs_done,
            total_runs: self.ck.requested_runs,
            ssf: state.current_ssf(),
            sample_variance,
            ess: state.ess(),
            target_eps: options.target_eps,
            lln_bound: options
                .target_eps
                .map(|eps| state.lln_bound(sample_variance, eps)),
            class_counts: state.class_counts,
            counters: state.counters,
            kernel_counters: state.kernel_counters,
            elapsed_s,
            runs_per_sec: if elapsed_s > 0.0 {
                (runs_done - self.resumed_runs) as f64 / elapsed_s
            } else {
                0.0
            },
            mlmc: (state.estimator == EstimatorKind::Mlmc).then(|| MlmcProgress {
                level,
                n0: state.level0.count(),
                n1: state.level1_diff.count(),
            }),
            chunk_wall: self.telemetry.latency.chunk_wall.summary(),
        };
        let event = self.telemetry.merged(Boundary {
            event,
            chunk,
            level,
            stats,
            successes: state.successes,
            plan_ratio: state.plan_ratio,
        });
        let lln_bound = event.lln_bound;
        if observer.on_progress(event) == ObserverAction::Abort {
            return Ok(Some(StopReason::Aborted));
        }
        if let Some(bound) = lln_bound {
            if runs_done >= EARLY_STOP_MIN_RUNS
                && state.levels_ready()
                && bound <= 1.0 - options.target_confidence
            {
                self.telemetry.early_stop();
                return Ok(Some(StopReason::TargetEps));
            }
        }
        let every = options.checkpoint_every_runs.div_ceil(CHUNK_RUNS).max(1);
        if (state.merged_chunks - self.start_chunk).is_multiple_of(every)
            || runs_done == self.ck.requested_runs
        {
            if let Some(path) = &options.checkpoint_path {
                let t_ck = Instant::now();
                self.ck.save(path)?;
                self.telemetry
                    .checkpoint_written(t_ck.elapsed().as_secs_f64());
            }
            self.telemetry.cadence()?;
        }
        Ok(None)
    }
}

/// [`run_campaign_with`] plus a [`CampaignObserver`] receiving a
/// [`ProgressEvent`] at every merged chunk boundary.
///
/// The merge is incremental: as soon as the next in-order chunk partial
/// is available it is folded, the observer is notified, the
/// `--target-eps` stopping rule is evaluated, and (when due) a checkpoint
/// is written. With one worker the driver runs each chunk inline and
/// merges it at once; with more, out-of-order partials from faster
/// workers wait in a small reorder buffer. Because all of that happens on
/// the merged *prefix* — which is a pure function of `(seed, n, strategy)`
/// — the event stream, the stopping point, and any checkpoint are
/// identical at any thread count and under either kernel; only the
/// wall-clock fields differ.
///
/// # Errors
///
/// [`CampaignError::Checkpoint`], naming the path, when the
/// `options.checkpoint_path` file cannot be read, is not a valid
/// checkpoint, was written by a different campaign, or cannot be written;
/// [`CampaignError::Artifact`], naming the path, when a metrics, trace,
/// prom or events file cannot be written. Every artifact path is checked
/// before the first chunk runs. A later write failure stops the workers;
/// the error returns once they have exited.
pub fn run_campaign_observed(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    n: usize,
    seed: u64,
    options: &CampaignOptions,
    observer: &mut dyn CampaignObserver,
) -> Result<CampaignResult, CampaignError> {
    let start_time = Instant::now();
    let chunks = n.div_ceil(CHUNK_RUNS);
    let chunk_bounds = |c: usize| c * CHUNK_RUNS..((c + 1) * CHUNK_RUNS).min(n);

    let mut ck = CampaignCheckpoint {
        seed,
        requested_runs: n,
        chunk_runs: CHUNK_RUNS,
        strategy: strategy.name().to_owned(),
        kernel: options.kernel,
        state: MergeState {
            estimator: options.estimator,
            ..MergeState::default()
        },
    };
    if let Some(path) = &options.checkpoint_path {
        ck.resume(path)?;
    }
    check_artifact_paths(options)?;
    // MLMC machinery: the SET → multi-bit-SEU map the cheap level injects
    // through, and the chunk-level plan cell. The pilot chunks use the
    // fixed alternating schedule; the post-pilot schedule is published by
    // the merge step the moment the pilot is fully merged (or restored from
    // a checkpoint). Workers claiming a post-pilot chunk spin on the cell —
    // deadlock-free because chunk indices are claimed in order, so the
    // pilot chunks are always in flight before any worker needs the plan.
    let mlmc_on = options.estimator == EstimatorKind::Mlmc;
    let seu_map = mlmc_on.then(|| SetToSeuMap::build(runner.model, runner.eval, runner.prechar));
    let plan_cell: OnceLock<MlmcPlan> = OnceLock::new();
    if let Some(ratio) = ck.state.plan_ratio {
        let _ = plan_cell.set(MlmcPlan { ratio });
    }
    let start_chunk = ck.state.merged_chunks;
    let resumed_runs = ck.state.runs_merged();

    let telemetry = TelemetrySink::start(
        options,
        strategy.name(),
        seed,
        n,
        resumed_runs,
        ck.state.plan_ratio.is_some(),
        start_time,
    )?;

    // Span tracing never feeds the statistics (it only reads the clock),
    // and provenance is copied *out* of the fold — so neither can change a
    // result bit. Provenance is recorded whenever the trace file or a
    // replay needs it.
    let sink = if options.trace_path.is_some() {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };
    let record_provenance = options.trace_path.is_some() || options.replay.is_some();
    let mut merger = Merger {
        ck,
        options,
        plan_cell: &plan_cell,
        telemetry,
        start_chunk,
        resumed_runs,
        ring: VecDeque::new(),
        success_log: Vec::new(),
        replay_capture: None,
    };

    // Where the merge loop ended: `Ok(None)` once every chunk is merged.
    let mut outcome: Result<Option<StopReason>, CampaignError> = Ok(None);
    // Schedule-dependent totals of every worker (snapshot-cache counters,
    // conclusion-memo hits and misses, strike-memo hits) and merge-path
    // scheduling observability; they surface in the metrics JSON only.
    let mut worker_totals = Vec::new();
    let mut merge_wait_s = 0.0f64;
    let mut reorder_peak = 0usize;
    let mut workers = 0usize;
    if start_chunk < chunks {
        let threads = options.effective_threads().clamp(1, chunks - start_chunk);
        // Workers of the compiled kernel share one golden window: the
        // nominal value of every net in every golden cycle, derived once
        // per campaign by one bit-parallel sweep per 64-cycle block. The
        // MLMC executors are scalar by design (the correction level is
        // sampled rarely, the cheap level never strikes the netlist), so
        // they skip it — which is also what makes `--estimator mlmc`
        // results trivially identical under both kernels.
        let window = match options.kernel {
            _ if mlmc_on => None,
            CampaignKernel::Scalar => None,
            CampaignKernel::Compiled => Some(runner.model.golden_window(&runner.eval.golden)),
        };
        // Shared with the plan-cell spin below: a merge loop that stops
        // early can exit before the pilot is fully folded, in which case
        // the plan is never published and waiting workers must bail instead.
        let stop_flag = AtomicBool::new(false);
        let stop_flag = &stop_flag;
        // Execute the next window of chunks claimed from `claim` into
        // `out`, in chunk order: several chunks swept together under the
        // compiled single estimator, one chunk otherwise. Nothing when no
        // chunk is left.
        let run_window = |claim: &mut dyn FnMut() -> Option<(usize, Range<usize>)>,
                          w: &mut Worker,
                          tid: u32,
                          out: &mut Vec<(usize, ChunkPartial)>| {
            let Worker {
                flow,
                runs,
                batch,
                mlmc,
                memo,
                ctr,
                executed_runs,
            } = w;
            let window_t0 = Instant::now();
            match (&seu_map, &window) {
                (None, Some(window)) => run_window_compiled(
                    runner,
                    strategy,
                    seed,
                    claim,
                    batch,
                    window,
                    memo,
                    record_provenance,
                    &sink,
                    tid,
                    out,
                ),
                _ => {
                    let Some((c, range)) = claim() else { return };
                    let (start, end) = (range.start, range.end);
                    let chunk = u32::try_from(c).expect("chunk index fits a memo stamp");
                    let _span = sink.span_args(tid, "campaign", "chunk", &[("chunk", c as f64)]);
                    let p = if let Some(map) = &seu_map {
                        let level = if c < MlmcEstimator::PILOT_CHUNKS {
                            MlmcEstimator::pilot_level(c)
                        } else {
                            // The plan is published by the merge step once
                            // the pilot prefix is folded; chunk indices are
                            // claimed in order, so the pilot is always in
                            // flight ahead of this wait. The wait can only
                            // end without a plan when the merge loop stopped
                            // mid-pilot, and then the chunk is dropped.
                            let plan = loop {
                                if let Some(p) = plan_cell.get() {
                                    break p;
                                }
                                if stop_flag.load(Ordering::Relaxed) {
                                    return;
                                }
                                std::thread::yield_now();
                            };
                            plan.level_of_chunk(c)
                        };
                        if level == LEVEL_RTL {
                            multilevel::run_chunk_level0(
                                runner,
                                strategy,
                                map,
                                seed,
                                start,
                                end,
                                mlmc,
                                memo,
                                chunk,
                                ctr,
                                options.replay,
                            )
                        } else {
                            multilevel::run_chunk_level1(
                                runner,
                                strategy,
                                map,
                                seed,
                                start,
                                end,
                                mlmc,
                                memo,
                                chunk,
                                ctr,
                                record_provenance,
                            )
                        }
                    } else {
                        run_chunk(
                            runner,
                            strategy,
                            seed,
                            start,
                            end,
                            flow,
                            runs,
                            memo,
                            chunk,
                            ctr,
                            record_provenance,
                        )
                    };
                    out.push((c, p));
                }
            }
            *executed_runs += out.iter().map(|(_, p)| p.stats.count()).sum::<u64>();
            // Harvest worker-side latency into the window's first partial:
            // the shard rides the same in-order merge the statistics use,
            // keeping the telemetry deterministic in shape (counts differ
            // only in wall-clock values, never in which chunk they tag).
            if let Some((_, p)) = out.first_mut() {
                p.latency.absorb(&flow.take_latency());
                p.latency.absorb(&batch.take_latency());
                p.latency.absorb(&mlmc.take_latency());
                p.latency
                    .chunk_wall
                    .record(window_t0.elapsed().as_secs_f64());
            }
        };

        workers = threads;
        if threads <= 1 {
            // One worker: no thread, each window runs inline and its chunks
            // merge at once, in order; a stop drops the window's rest.
            let mut worker = Worker::default();
            let mut next = start_chunk;
            let mut claim = || {
                (next < chunks).then(|| {
                    next += 1;
                    (next - 1, chunk_bounds(next - 1))
                })
            };
            let mut parts = Vec::new();
            'windows: loop {
                run_window(&mut claim, &mut worker, 0, &mut parts);
                if parts.is_empty() {
                    break;
                }
                for (c, p) in parts.drain(..) {
                    outcome = merger.merge(c, p, observer);
                    if !matches!(outcome, Ok(None)) {
                        break 'windows;
                    }
                }
            }
            worker_totals.push(worker.totals());
        } else {
            // Arm the stall watchdog only where stalls are observable:
            // the threaded merge loop, which can wait on recv while
            // workers grind.
            merger.telemetry.arm_watchdog(options.stall_timeout_s);
            // The chunk each worker last claimed for the window it is
            // executing (`usize::MAX` = idle/between windows) — the state
            // dump a worker_stalled event reports.
            let worker_states: Vec<AtomicUsize> =
                (0..threads).map(|_| AtomicUsize::new(usize::MAX)).collect();
            let worker_states = &worker_states;
            let next = AtomicUsize::new(start_chunk);
            let (tx, rx) = std::sync::mpsc::channel::<(usize, ChunkPartial)>();
            std::thread::scope(|s| {
                let handles: Vec<_> = worker_states
                    .iter()
                    .enumerate()
                    .map(|(w, my_chunk)| {
                        let tx = tx.clone();
                        let run_window = &run_window;
                        let next = &next;
                        let tid = (w + 1) as u32;
                        s.spawn(move || {
                            let mut worker = Worker::default();
                            let mut claim = || {
                                if stop_flag.load(Ordering::Relaxed) {
                                    return None;
                                }
                                let c = next.fetch_add(1, Ordering::Relaxed);
                                (c < chunks).then(|| {
                                    my_chunk.store(c, Ordering::Relaxed);
                                    (c, chunk_bounds(c))
                                })
                            };
                            let mut parts = Vec::new();
                            'windows: loop {
                                run_window(&mut claim, &mut worker, tid, &mut parts);
                                my_chunk.store(usize::MAX, Ordering::Relaxed);
                                if parts.is_empty() {
                                    break;
                                }
                                for part in parts.drain(..) {
                                    // A send fails only when the merge loop
                                    // has stopped and dropped the receiver.
                                    if tx.send(part).is_err() {
                                        break 'windows;
                                    }
                                }
                            }
                            worker.totals()
                        })
                    })
                    .collect();
                drop(tx);
                // Reorder buffer for partials that arrive ahead of the
                // merge cursor; merges always happen in chunk order.
                let mut pending: BTreeMap<usize, ChunkPartial> = BTreeMap::new();
                'merge: while merger.ck.state.merged_chunks < chunks {
                    let wait = Instant::now();
                    // With a watchdog armed, wait in budget-sized slices
                    // so a silent worker pool is reported instead of
                    // blocking forever unobserved (`Duration::MAX` waits
                    // like `recv`).
                    let received = loop {
                        match rx.recv_timeout(merger.telemetry.stall_budget()) {
                            Ok(msg) => break Some(msg),
                            Err(RecvTimeoutError::Disconnected) => break None,
                            Err(RecvTimeoutError::Timeout) => merger.telemetry.check_stall(
                                merger.ck.state.merged_chunks,
                                worker_states.iter().map(|st| {
                                    Some(st.load(Ordering::Relaxed)).filter(|&c| c != usize::MAX)
                                }),
                            ),
                        }
                    };
                    let Some((c, p)) = received else { break };
                    let waited = wait.elapsed().as_secs_f64();
                    merge_wait_s += waited;
                    merger.telemetry.latency.merge_wait.record(waited);
                    pending.insert(c, p);
                    reorder_peak = reorder_peak.max(pending.len());
                    while let Some(p) = pending.remove(&merger.ck.state.merged_chunks) {
                        outcome = merger.merge(merger.ck.state.merged_chunks, p, observer);
                        if !matches!(outcome, Ok(None)) {
                            stop_flag.store(true, Ordering::Relaxed);
                            break 'merge;
                        }
                    }
                }
                drop(rx);
                for handle in handles {
                    match handle.join() {
                        Ok(totals) => worker_totals.push(totals),
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
            });
        }
    }
    let stop = outcome?.unwrap_or(StopReason::Completed);
    let Merger {
        ck,
        mut telemetry,
        ring,
        success_log,
        replay_capture,
        ..
    } = merger;

    let elapsed_s = start_time.elapsed().as_secs_f64();
    let fresh = (ck.state.runs_merged() - resumed_runs) as f64;
    let mut resume_stats = ResumeStats::default();
    let mut scheduler = SchedulerStats {
        workers,
        merge_wait_s,
        reorder_peak,
        ..SchedulerStats::default()
    };
    let mut executed = 0;
    for (ff, memos, runs) in &worker_totals {
        resume_stats.add(ff);
        scheduler.memo_hits += memos.memo_hits;
        scheduler.memo_misses += memos.memo_misses;
        scheduler.strike_memo_hits += memos.strike_memo_hits;
        scheduler.handle_recalls += memos.handle_recalls;
        executed += runs;
    }
    // Every run a worker executed that the merge did not take: past an
    // early stop, an abort or an error, in another worker's chunks or in
    // the rest of a window.
    scheduler.discarded_runs = executed - (ck.state.runs_merged() - resumed_runs) as u64;
    let program = match runner.model.mpu.netlist().program() {
        Ok(p) => ProgramStats {
            levels: p.levels(),
            gates: p.len(),
            lane_width: options.kernel.lane_width(),
            sweeps: ck.state.kernel_counters.lane_batches,
        },
        Err(_) => ProgramStats {
            lane_width: options.kernel.lane_width(),
            ..ProgramStats::default()
        },
    };
    let meta = MetricsMeta {
        seed,
        requested_runs: n,
        target_eps: options.target_eps,
        target_confidence: options.target_confidence,
        elapsed_s,
        runs_per_sec: if elapsed_s > 0.0 {
            fresh / elapsed_s
        } else {
            0.0
        },
        host_cpus: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        resume_stats,
        kernel: options.kernel,
        program,
        scheduler,
        latency: telemetry.latency.clone(),
    };
    let result = ck
        .state
        .into_result(strategy.name(), stop, options.trace_points);
    observer.on_finish(&result);

    // Replay before writing the trace so the replay spans land in the file.
    // The run is re-executed *at the level the campaign evaluated it*: under
    // MLMC a level-0 run's recorded verdict is the SEU-map conclusion, which
    // legitimately differs from the gate flow wherever the correction term
    // is non-zero — replaying the wrong level would spuriously fail the
    // cross-check below.
    if let Some(idx) = options.replay {
        let level = result
            .mlmc
            .as_ref()
            .and_then(|m| m.chunk_levels.get(idx as usize / CHUNK_RUNS))
            .copied()
            .unwrap_or(LEVEL_GATE);
        let rec = if level == LEVEL_RTL {
            let map = seu_map
                .as_ref()
                .expect("an MLMC result implies the SEU map was built");
            multilevel::replay_run_level0(runner, map, strategy, seed, idx)
        } else {
            replay_run(runner, strategy, seed, idx, &sink)
        };
        eprintln!(
            "[replay] run {idx} (level={}): t={} center={} radius={} phase={} te={:?} w={} \
             class={} success={} analytic={}",
            if level == LEVEL_RTL { "rtl" } else { "gate" },
            rec.t,
            rec.center.index(),
            rec.radius,
            rec.phase,
            rec.te,
            rec.weight,
            trace::class_str(rec.class),
            rec.success,
            rec.analytic,
        );
        match &replay_capture {
            Some(orig) => {
                assert_eq!(
                    *orig, rec,
                    "replay of run {idx} diverged from the campaign's provenance record"
                );
                eprintln!("[replay] verdict matches the campaign's record for run {idx}");
                telemetry.replay_verified(idx, level);
            }
            None => eprintln!(
                "[replay] run {idx} was not executed by this campaign invocation \
                 (n = {}, resumed prefix = {resumed_runs}); nothing to compare",
                result.n
            ),
        }
    }

    if let Some(path) = &options.trace_path {
        sink.print_self_time(strategy.name());
        eprint!("{}", telemetry::summary_lines(&result, &meta));
        let ring: Vec<ProvenanceRecord> = ring.into_iter().collect();
        trace::write_trace(
            path,
            &sink,
            &result.counters,
            &result.kernel_counters,
            &ring,
            &success_log,
        )
        .map_err(|e| CampaignError::artifact("trace", path, &e))?;
    }

    telemetry.finish(&result, &meta, options.metrics_path.as_deref())?;
    Ok(result)
}

/// Absorb one merged chunk's provenance: keep the trailing
/// [`PROVENANCE_RING_CAP`] records, every success, and the `--replay`
/// target's record. Called in chunk order, so the ring holds the last runs
/// of the merged prefix.
fn absorb_provenance(
    prov: Vec<ProvenanceRecord>,
    level: u8,
    replay_target: Option<u64>,
    ring: &mut VecDeque<ProvenanceRecord>,
    successes: &mut Vec<ProvenanceRecord>,
    capture: &mut Option<ProvenanceRecord>,
) {
    for rec in prov {
        if replay_target == Some(rec.run_index) {
            *capture = Some(rec.clone());
        }
        // A level-0 chunk's only record is the replay target; the trace
        // ring and the success log stay gate-level notions.
        if level == LEVEL_RTL {
            continue;
        }
        if rec.success {
            successes.push(rec.clone());
        }
        ring.push_back(rec);
        if ring.len() > PROVENANCE_RING_CAP {
            ring.pop_front();
        }
    }
}

/// Re-derive and re-execute campaign run `run_index` solo: the same
/// `SplitMix64::for_run(seed, run_index)` stream, a fresh scratch, full
/// span tracing. Returns the run's provenance record, which must equal the
/// campaign's (the run is a pure function of `(seed, run_index, strategy)`).
pub fn replay_run(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    run_index: u64,
    sink: &TraceSink,
) -> ProvenanceRecord {
    let _run = sink.span_args(0, "replay", "replay-run", &[("run", run_index as f64)]);
    let RunDraw { sample, w, mut rng } = {
        let _draw = sink.span("replay", "draw");
        draw_run(strategy, seed, run_index)
    };
    let mut scratch = FlowScratch::default();
    let outcome = {
        let _exec = sink.span("replay", "strike+conclude");
        runner
            .run_with(&sample, &mut rng, &mut scratch)
            .to_outcome()
    };
    ProvenanceRecord {
        run_index,
        t: sample.t,
        center: sample.center,
        radius: sample.radius,
        phase: sample.phase,
        te: outcome.injection_cycle,
        weight: w,
        class: outcome.class,
        success: outcome.success,
        analytic: outcome.analytic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Evaluation, SystemModel};
    use crate::precharacterize::Precharacterization;
    use crate::sampling::{
        baseline_distribution, ExperimentConfig, ImportanceSampling, RandomSampling,
    };
    use xlmc_soc::workloads;

    struct Fixture {
        model: SystemModel,
        eval: Evaluation,
        prechar: Precharacterization,
        cfg: ExperimentConfig,
    }

    fn fixture() -> Fixture {
        let model = SystemModel::with_defaults().unwrap();
        let eval = Evaluation::new(workloads::illegal_write()).unwrap();
        let cfg = ExperimentConfig {
            t_max: 20,
            ..Default::default()
        };
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        Fixture {
            model,
            eval,
            prechar,
            cfg,
        }
    }

    fn runner(f: &Fixture) -> FaultRunner<'_> {
        FaultRunner {
            model: &f.model,
            eval: &f.eval,
            prechar: &f.prechar,
            hardening: None,
            multi_fault: None,
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    proptest::proptest! {
        /// The dense chunk attribution merges into the campaign map with
        /// the bits of the per-chunk `BTreeMap` fold it replaces: every sum
        /// in run order, and a zero-weight success still creates its key.
        #[test]
        fn dense_attribution_matches_a_btreemap_fold(
            chunks in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        proptest::collection::vec(0usize..256, 0..5),
                        0u32..4,
                        proptest::prelude::any::<u64>(),
                    ),
                    0..12,
                ),
                1..4,
            ),
        ) {
            // Any bijection serves as the DFF-to-bit table.
            let dff_bits: Vec<MpuBit> = MpuBit::all().into_iter().rev().collect();
            let mut dense_map = BTreeMap::new();
            let mut oracle_map: BTreeMap<MpuBit, f64> = BTreeMap::new();
            for runs in &chunks {
                let mut dense = ChunkAttribution::default();
                let mut oracle: BTreeMap<MpuBit, f64> = BTreeMap::new();
                for (picks, kind, raw) in runs {
                    let regs: DffMask = picks.iter().map(|&k| k % dff_bits.len()).collect();
                    let bits: Vec<MpuBit> = regs.iter().map(|i| dff_bits[i]).collect();
                    let w = match kind {
                        0 => 0.0,
                        1 => 1.0,
                        _ => (*raw >> 11) as f64 / (1u64 << 40) as f64,
                    };
                    dense.add(regs, w, &dff_bits);
                    for &bit in &bits {
                        *oracle.entry(bit).or_insert(0.0) += w;
                    }
                }
                dense.merge_into(&mut dense_map);
                for (bit, w) in oracle {
                    *oracle_map.entry(bit).or_insert(0.0) += w;
                }
            }
            let bits = |m: &BTreeMap<MpuBit, f64>| {
                m.iter().map(|(&b, w)| (b, w.to_bits())).collect::<Vec<_>>()
            };
            proptest::prop_assert_eq!(bits(&dense_map), bits(&oracle_map));
        }
    }

    #[test]
    fn zero_weight_success_creates_its_attribution_key() {
        let dff_bits = MpuBit::all();
        let (enable, violation) = (MpuBit::Enable.index(), MpuBit::Violation.index());
        let mut dense = ChunkAttribution::default();
        dense.add(DffMask::from_iter([enable, violation]), 0.0, &dff_bits);
        dense.add(DffMask::from_iter([violation]), 0.5, &dff_bits);
        let mut map = BTreeMap::new();
        dense.merge_into(&mut map);
        assert_eq!(map.len(), 2);
        assert_eq!(map[&MpuBit::Enable].to_bits(), 0.0f64.to_bits());
        assert_eq!(map[&MpuBit::Violation], 0.5);
    }

    #[test]
    fn random_campaign_produces_consistent_counters() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let result = run_campaign(&r, &strat, 400, 42);
        assert_eq!(result.n, 400);
        assert_eq!(result.class_counts.total(), 400);
        assert_eq!(
            result.class_counts.memory_only + result.class_counts.mixed,
            result.analytic_runs + result.rtl_runs
        );
        assert!((0.0..=1.0).contains(&result.ssf));
        assert_eq!(result.trace.last().unwrap().0, 400);
        assert_eq!(result.strategy, "random");
        assert_eq!(result.stop, StopReason::Completed);
        // The baseline draws unit weights, so ESS equals n exactly.
        assert_eq!(result.ess, 400.0);
    }

    #[test]
    fn random_campaign_finds_some_successes() {
        // The sub-block contains persistent config cells; with t up to 20
        // and 400 shots the baseline should land a few.
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let result = run_campaign(&r, &strat, 400, 7);
        assert!(result.successes > 0, "no successes in 400 random shots");
        assert!(result.ssf > 0.0);
        assert!(!result.attribution.is_empty());
    }

    #[test]
    fn importance_campaign_matches_random_estimate() {
        // Unbiasedness end-to-end: both estimators target the same SSF.
        let f = fixture();
        let r = runner(&f);
        let fd = baseline_distribution(&f.model, &f.cfg);
        let random = RandomSampling::new(fd.clone());
        let is = ImportanceSampling::new(
            fd,
            &f.model,
            &f.prechar,
            f.cfg.alpha,
            f.cfg.beta,
            f.cfg.radius_options.clone(),
        );
        let a = run_campaign(&r, &random, 1200, 1);
        let b = run_campaign(&r, &is, 1200, 2);
        assert!(a.ssf > 0.0 && b.ssf > 0.0);
        let ratio = a.ssf / b.ssf;
        assert!(
            (0.3..=3.0).contains(&ratio),
            "random {} vs importance {}",
            a.ssf,
            b.ssf
        );
        // A skewed proposal has non-unit weights, so its ESS drops below n
        // but must stay positive.
        assert!(b.ess > 0.0 && b.ess <= 1200.0 + 1e-9, "ess {}", b.ess);
    }

    #[test]
    fn importance_variance_is_much_smaller() {
        // The headline claim: importance sampling slashes the sample
        // variance (paper: 0.0261 -> 9.7e-5).
        let f = fixture();
        let r = runner(&f);
        let fd = baseline_distribution(&f.model, &f.cfg);
        let random = RandomSampling::new(fd.clone());
        let is = ImportanceSampling::new(
            fd,
            &f.model,
            &f.prechar,
            f.cfg.alpha,
            f.cfg.beta,
            f.cfg.radius_options.clone(),
        );
        let a = run_campaign(&r, &random, 800, 10);
        let b = run_campaign(&r, &is, 800, 11);
        assert!(
            b.sample_variance < a.sample_variance,
            "importance {} !< random {}",
            b.sample_variance,
            a.sample_variance
        );
        assert!(b.lln_bound(0.01) < a.lln_bound(0.01));
    }

    #[test]
    fn masked_strikes_dominate() {
        // Paper Figure 10(a): most strikes are masked.
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let result = run_campaign(&r, &strat, 300, 20);
        let (masked, _, _) = result.class_counts.fractions();
        assert!(masked > 0.3, "masked fraction {masked}");
    }

    #[test]
    fn trace_has_no_duplicate_points_and_ends_at_n() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        // n both divisible and not divisible by the shard size, n < shard
        // size, and n below the old 200-point threshold (the historical
        // duplicate-final-point case).
        for n in [32, 64, 150, 190, 200, 333] {
            let result = run_campaign(&r, &strat, n, 5);
            let trace = &result.trace;
            assert_eq!(trace.last().unwrap().0, n, "n = {n}");
            for w in trace.windows(2) {
                assert!(w[0].0 < w[1].0, "n = {n}: non-increasing trace {trace:?}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let sequential = run_campaign_with(&r, &strat, 200, 13, &CampaignOptions::with_threads(1));
        for threads in [2, 4, 7] {
            let parallel =
                run_campaign_with(&r, &strat, 200, 13, &CampaignOptions::with_threads(threads));
            assert_eq!(sequential.ssf, parallel.ssf, "threads = {threads}");
            assert_eq!(
                sequential.sample_variance, parallel.sample_variance,
                "threads = {threads}"
            );
            assert_eq!(sequential.successes, parallel.successes);
            assert_eq!(sequential.class_counts, parallel.class_counts);
            assert_eq!(sequential.analytic_runs, parallel.analytic_runs);
            assert_eq!(sequential.rtl_runs, parallel.rtl_runs);
            assert_eq!(sequential.attribution, parallel.attribution);
            assert_eq!(sequential.trace, parallel.trace);
            assert_eq!(sequential.ess, parallel.ess);
        }
    }

    #[test]
    fn kernel_choice_does_not_change_the_result() {
        // The full campaign result — estimate, variance, trace, class
        // split, attribution — is bit-identical between the scalar and the
        // compiled kernel, for every strategy and thread count.
        let f = fixture();
        let r = runner(&f);
        let fd = baseline_distribution(&f.model, &f.cfg);
        let strategies: Vec<Box<dyn SamplingStrategy>> = vec![
            Box::new(RandomSampling::new(fd.clone())),
            Box::new(crate::sampling::ConeSampling::new(
                fd.clone(),
                &f.prechar,
                f.cfg.radius_options.clone(),
            )),
            Box::new(ImportanceSampling::new(
                fd,
                &f.model,
                &f.prechar,
                f.cfg.alpha,
                f.cfg.beta,
                f.cfg.radius_options.clone(),
            )),
        ];
        for strat in &strategies {
            let scalar = run_campaign_with(
                &r,
                strat.as_ref(),
                500,
                17,
                &CampaignOptions::with_kernel(CampaignKernel::Scalar),
            );
            for threads in [1usize, 2, 4] {
                let opts = CampaignOptions {
                    threads,
                    ..CampaignOptions::with_kernel(CampaignKernel::Compiled)
                };
                let mut packed = run_campaign_with(&r, strat.as_ref(), 500, 17, &opts);
                // Kernel-shape counters (lane occupancy, sweep-wide gate
                // visits) legitimately differ between kernels; everything
                // else must be bit-identical.
                packed.kernel_counters = scalar.kernel_counters;
                assert_eq!(
                    scalar,
                    packed,
                    "strategy {} threads {threads}",
                    strat.name()
                );
            }
        }
    }

    #[test]
    fn packed_kernels_handle_partial_tail_batches() {
        // runs not divisible by the lane width must not drop or duplicate
        // runs: the compiled kernel equals the scalar reference at every
        // tail shape (around the 64-bit word boundaries inside a sweep and
        // the 256-lane sweep boundary).
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        for n in [1usize, 63, 64, 65, 127, 128, 129, 191, 255, 256, 257] {
            let scalar = run_campaign_with(
                &r,
                &strat,
                n,
                23,
                &CampaignOptions::with_kernel(CampaignKernel::Scalar),
            );
            assert_eq!(scalar.n, n);
            assert_eq!(scalar.class_counts.total(), n, "n = {n}");
            let mut packed = run_campaign_with(
                &r,
                &strat,
                n,
                23,
                &CampaignOptions::with_kernel(CampaignKernel::Compiled),
            );
            packed.kernel_counters = scalar.kernel_counters;
            assert_eq!(scalar, packed, "n = {n}");
        }
    }

    #[test]
    fn kernel_arg_parses() {
        let mut opts = CampaignOptions::default();
        assert_eq!(opts.kernel, CampaignKernel::Compiled);
        opts.set_kernel_arg("scalar").unwrap();
        assert_eq!(opts.kernel, CampaignKernel::Scalar);
        opts.set_kernel_arg("compiled").unwrap();
        assert_eq!(opts.kernel, CampaignKernel::Compiled);
        // The removed 64-lane kernel's spelling is an unknown value like
        // any other, with the same message.
        for bad in ["bogus", "batched"] {
            let err = opts.set_kernel_arg(bad).unwrap_err();
            assert_eq!(
                err,
                format!("invalid --kernel value \"{bad}\": expected \"scalar\" or \"compiled\"")
            );
            assert_eq!(
                opts.kernel,
                CampaignKernel::Compiled,
                "a bad value changes nothing"
            );
        }
    }

    #[test]
    fn campaign_options_resolve_threads() {
        assert_eq!(CampaignOptions::default().effective_threads(), 1);
        assert_eq!(CampaignOptions::with_threads(4).effective_threads(), 4);
        assert!(CampaignOptions::with_threads(0).effective_threads() >= 1);
    }

    #[test]
    fn bad_threads_value_is_an_error_not_a_silent_default() {
        // Regression: `--threads foo` used to be swallowed and the default
        // of 1 used, so a typo silently serialized a 32-core campaign.
        for argv in [
            args(&["--threads", "foo"]),
            args(&["--threads=foo"]),
            args(&["--threads", "-3"]),
            args(&["--threads"]),
        ] {
            let err = CampaignOptions::parse_args(argv.clone()).unwrap_err();
            assert!(err.contains("--threads"), "argv {argv:?}: {err}");
        }
        let ok = CampaignOptions::parse_args(args(&["--threads", "6"])).unwrap();
        assert_eq!(ok.threads, 6);
        let ok = CampaignOptions::parse_args(args(&["--threads=8"])).unwrap();
        assert_eq!(ok.threads, 8);
    }

    #[test]
    fn telemetry_args_parse_and_validate() {
        let opts = CampaignOptions::parse_args(args(&[
            "--target-eps",
            "0.01",
            "--target-confidence=0.99",
            "--metrics",
            "out/metrics.json",
            "--checkpoint=ck.json",
            "--checkpoint-every",
            "2048",
            "--some-caller-flag",
            "5000",
        ]))
        .unwrap();
        assert_eq!(opts.target_eps, Some(0.01));
        assert_eq!(opts.target_confidence, 0.99);
        assert_eq!(
            opts.metrics_path.as_deref(),
            Some(std::path::Path::new("out/metrics.json"))
        );
        assert_eq!(
            opts.checkpoint_path.as_deref(),
            Some(std::path::Path::new("ck.json"))
        );
        assert_eq!(opts.checkpoint_every_runs, 2048);

        assert!(CampaignOptions::parse_args(args(&["--target-eps", "-0.5"])).is_err());
        assert!(CampaignOptions::parse_args(args(&["--target-eps", "nope"])).is_err());
        assert!(CampaignOptions::parse_args(args(&["--target-confidence", "1.5"])).is_err());
        assert!(CampaignOptions::parse_args(args(&["--checkpoint-every", "0"])).is_err());
    }

    #[test]
    fn removed_flags_are_unknown_not_skipped() {
        for &flag in CampaignOptions::REMOVED_FLAGS {
            assert!(!CampaignOptions::VALUE_FLAGS.contains(&flag), "{flag}");
            assert!(
                !CampaignOptions::usage().contains(flag),
                "{flag} is still in the help table"
            );
        }
        for argv in [
            args(&["--fast-forward", "on"]),
            args(&["--fast-forward", "off"]),
            args(&["--fast-forward=off"]),
            args(&["--threads", "2", "--fast-forward", "on"]),
        ] {
            let err = CampaignOptions::parse_args(argv.clone()).unwrap_err();
            assert_eq!(err, "unknown flag --fast-forward", "argv {argv:?}");
        }
    }

    #[test]
    fn trace_and_replay_args_parse_and_validate() {
        let opts = CampaignOptions::parse_args(args(&["--trace", "out/trace.json", "--replay=42"]))
            .unwrap();
        assert_eq!(
            opts.trace_path.as_deref(),
            Some(std::path::Path::new("out/trace.json"))
        );
        assert_eq!(opts.replay, Some(42));
        assert!(CampaignOptions::parse_args(args(&["--replay", "nope"])).is_err());
        assert!(CampaignOptions::parse_args(args(&["--replay", "-1"])).is_err());
        assert!(CampaignOptions::parse_args(args(&["--trace"])).is_err());
    }

    #[test]
    fn usage_mentions_every_value_flag() {
        let usage = CampaignOptions::usage();
        for &flag in CampaignOptions::VALUE_FLAGS {
            assert!(usage.contains(flag), "usage is missing {flag}");
        }
        assert!(usage.contains("--help"), "usage is missing --help");
    }

    /// The inverse contract: every value flag the help table advertises is
    /// actually accepted by the parser (an unknown flag would be skipped
    /// and its value consumed as a positional by the caller).
    #[test]
    fn every_value_flag_round_trips_through_the_parser() {
        for &flag in CampaignOptions::VALUE_FLAGS {
            let value = match flag {
                "--kernel" => "scalar",
                "--estimator" => "mlmc",
                "--target-eps" => "0.01",
                "--target-confidence" => "0.9",
                "--stall-timeout" => "2.5",
                "--metrics" | "--checkpoint" | "--trace" | "--events" | "--prom" => "/tmp/x.json",
                _ => "3",
            };
            CampaignOptions::parse_args([flag.to_owned(), value.to_owned()])
                .unwrap_or_else(|e| panic!("{flag} rejected a valid value: {e}"));
            // Nor may a bad value be ignored (any string is a path).
            if value != "/tmp/x.json" {
                let err =
                    CampaignOptions::parse_args([flag.to_owned(), "foo".to_owned()]).unwrap_err();
                assert!(err.contains(flag) && err.contains("foo"), "{err:?}");
            }
            // A missing value must be a readable error, not a panic.
            let err = CampaignOptions::parse_args([flag.to_owned()]).unwrap_err();
            assert!(err.contains(flag), "{err:?} does not name {flag}");
        }
    }

    #[test]
    fn campaigns_are_seed_deterministic() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let a = run_campaign(&r, &strat, 150, 99);
        let b = run_campaign(&r, &strat, 150, 99);
        assert_eq!(a.ssf, b.ssf);
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.class_counts, b.class_counts);
    }

    #[test]
    fn observer_sees_every_chunk_boundary_in_order() {
        struct Collect(Vec<ProgressEvent>, usize);
        impl CampaignObserver for Collect {
            fn on_progress(&mut self, ev: &ProgressEvent) -> ObserverAction {
                self.0.push(ev.clone());
                ObserverAction::Continue
            }
            fn on_finish(&mut self, _r: &CampaignResult) {
                self.1 += 1;
            }
        }
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let n = 3 * CHUNK_RUNS + 100;
        let mut obs = Collect(Vec::new(), 0);
        let result =
            run_campaign_observed(&r, &strat, n, 31, &CampaignOptions::default(), &mut obs)
                .unwrap();
        assert_eq!(obs.1, 1, "on_finish fires once");
        assert_eq!(obs.0.len(), 4, "one event per chunk");
        assert_eq!(
            obs.0.iter().map(|e| e.runs_done).collect::<Vec<_>>(),
            vec![512, 1024, 1536, n]
        );
        let last = obs.0.last().unwrap();
        assert_eq!(last.ssf, result.ssf);
        assert_eq!(last.sample_variance, result.sample_variance);
        assert_eq!(last.ess, result.ess);
        assert_eq!(last.class_counts, result.class_counts);
    }

    #[test]
    fn observer_abort_stops_at_a_chunk_boundary() {
        struct AbortImmediately;
        impl CampaignObserver for AbortImmediately {
            fn on_progress(&mut self, _ev: &ProgressEvent) -> ObserverAction {
                ObserverAction::Abort
            }
        }
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let result = run_campaign_observed(
            &r,
            &strat,
            4 * CHUNK_RUNS,
            31,
            &CampaignOptions::default(),
            &mut AbortImmediately,
        )
        .unwrap();
        assert_eq!(result.stop, StopReason::Aborted);
        assert_eq!(result.n, CHUNK_RUNS);
        assert_eq!(result.class_counts.total(), CHUNK_RUNS);
    }

    #[test]
    fn target_eps_stops_early_and_meets_the_bound() {
        // A loose eps is satisfiable almost immediately, but never before
        // the EARLY_STOP_MIN_RUNS guard.
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let opts = CampaignOptions {
            target_eps: Some(0.5),
            ..CampaignOptions::default()
        };
        let result = run_campaign_with(&r, &strat, 8 * CHUNK_RUNS, 31, &opts);
        assert_eq!(result.stop, StopReason::TargetEps);
        assert_eq!(result.n, EARLY_STOP_MIN_RUNS);
        assert!(result.lln_bound(0.5) <= 1.0 - opts.target_confidence);
    }

    #[test]
    fn estimator_arg_parses() {
        let opts = CampaignOptions::parse_args(args(&["--estimator", "mlmc"])).unwrap();
        assert_eq!(opts.estimator, EstimatorKind::Mlmc);
        let opts = CampaignOptions::parse_args(args(&["--estimator=single"])).unwrap();
        assert_eq!(opts.estimator, EstimatorKind::Single);
        assert_eq!(CampaignOptions::default().estimator, EstimatorKind::Single);
        assert!(CampaignOptions::parse_args(args(&["--estimator", "both"])).is_err());
        assert!(CampaignOptions::parse_args(args(&["--estimator"])).is_err());
    }

    fn mlmc_opts() -> CampaignOptions {
        CampaignOptions {
            estimator: EstimatorKind::Mlmc,
            ..CampaignOptions::default()
        }
    }

    #[test]
    fn mlmc_summary_is_internally_consistent() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let n = 6 * CHUNK_RUNS;
        let result = run_campaign_with(&r, &strat, n, 42, &mlmc_opts());
        assert_eq!(result.estimator, EstimatorKind::Mlmc);
        assert_eq!(result.n, n);
        let m = result.mlmc.as_ref().expect("mlmc summary present");
        assert_eq!((m.n0 + m.n1) as usize, n);
        assert!(m.n0 > 0 && m.n1 > 0);
        // The pilot alternates starting with the coupled level, so the
        // correction stream is never empty.
        assert_eq!(&m.chunk_levels[..4], &[1, 0, 1, 0]);
        assert_eq!(m.chunk_levels.len(), n.div_ceil(CHUNK_RUNS));
        assert!(m.plan_ratio.is_some(), "plan frozen after the pilot");
        // The telescoped point estimate is the sum of the level means.
        assert!((result.ssf - (m.mean0 + m.mean1_diff)).abs() < 1e-15);
        assert!((0.0..=1.0).contains(&result.ssf));
        // Every run — cheap or coupled — is classified, so the class
        // split still covers the whole campaign.
        assert_eq!(result.class_counts.total(), n);
    }

    #[test]
    fn mlmc_result_is_thread_and_kernel_invariant() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let n = 6 * CHUNK_RUNS;
        let base = run_campaign_with(&r, &strat, n, 57, &mlmc_opts());
        for kernel in [CampaignKernel::Scalar, CampaignKernel::Compiled] {
            for threads in [1usize, 4] {
                let opts = CampaignOptions {
                    kernel,
                    threads,
                    ..mlmc_opts()
                };
                let got = run_campaign_with(&r, &strat, n, 57, &opts);
                // The MLMC executors are scalar at every level, so even the
                // kernel-shape counters are identical — full bit equality.
                assert_eq!(base, got, "kernel {kernel:?} threads {threads}");
            }
        }
    }

    #[test]
    fn mlmc_estimate_agrees_with_single() {
        // Both estimators are unbiased for the same SSF; with coupled
        // seeds the two point estimates from the same stream family must
        // land within a few combined standard errors of each other.
        let f = fixture();
        let r = runner(&f);
        let fd = baseline_distribution(&f.model, &f.cfg);
        let is = ImportanceSampling::new(
            fd,
            &f.model,
            &f.prechar,
            f.cfg.alpha,
            f.cfg.beta,
            f.cfg.radius_options.clone(),
        );
        let n = 8 * CHUNK_RUNS;
        let single = run_campaign_with(&r, &is, n, 5, &CampaignOptions::default());
        let mlmc = run_campaign_with(&r, &is, n, 5, &mlmc_opts());
        let m = mlmc.mlmc.as_ref().unwrap();
        let se = (single.sample_variance / n as f64 + m.estimator_variance())
            .sqrt()
            .max(1e-4);
        assert!(
            (single.ssf - mlmc.ssf).abs() <= 5.0 * se,
            "single {} vs mlmc {} (se {se})",
            single.ssf,
            mlmc.ssf
        );
    }

    #[test]
    fn mlmc_target_eps_stop_is_deterministic() {
        // The stopping rule must wait for both levels to have samples; the
        // alternating pilot guarantees that by the EARLY_STOP_MIN_RUNS
        // guard, so a loose eps stops at exactly the same prefix as the
        // single estimator would.
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let opts = CampaignOptions {
            target_eps: Some(0.5),
            ..mlmc_opts()
        };
        let result = run_campaign_with(&r, &strat, 8 * CHUNK_RUNS, 31, &opts);
        assert_eq!(result.stop, StopReason::TargetEps);
        assert_eq!(result.n, EARLY_STOP_MIN_RUNS);
        let m = result.mlmc.as_ref().unwrap();
        assert_eq!(m.chunk_levels, vec![1, 0]);
    }

    #[test]
    fn checkpoint_estimator_mismatch_is_an_error() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let dir = std::env::temp_dir().join(format!("xlmc-estmm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("ck.json");
        let _ = std::fs::remove_file(&ck);
        let opts = CampaignOptions {
            checkpoint_path: Some(ck.clone()),
            checkpoint_every_runs: CHUNK_RUNS,
            ..CampaignOptions::default()
        };
        run_campaign_with(&r, &strat, 2 * CHUNK_RUNS, 3, &opts);
        assert!(ck.is_file(), "single-estimator checkpoint written");
        let resume = CampaignOptions {
            checkpoint_path: Some(ck.clone()),
            ..mlmc_opts()
        };
        let err = run_campaign_observed(&r, &strat, 2 * CHUNK_RUNS, 3, &resume, &mut NullObserver)
            .unwrap_err();
        let CampaignError::Checkpoint { path, reason } = &err else {
            panic!("expected a checkpoint error: {err}");
        };
        assert_eq!(path, &ck);
        assert!(reason.contains("estimator"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
