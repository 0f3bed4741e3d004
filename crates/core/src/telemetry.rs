//! Campaign telemetry: structured progress events, convergence metrics,
//! and crash-safe checkpoint/resume for the Monte Carlo engine.
//!
//! Three consumers hang off the campaign driver's in-order merge loop:
//!
//! * **Observers** ([`CampaignObserver`]) receive a [`ProgressEvent`] at
//!   every merged chunk boundary — running SSF, Welford variance, the
//!   §3.3 LLN bound at the configured `--target-eps`, the importance-
//!   sampling effective sample size `(Σw)²/Σw²`, per-class strike counts
//!   and wall-clock throughput. An observer can abort the campaign
//!   (cleanly, at a chunk boundary) by returning
//!   [`ObserverAction::Abort`].
//! * **Metrics** — when `CampaignOptions::metrics_path` is set, the
//!   driver serializes a summary of the finished campaign (stop reason,
//!   final `n`, ESS, convergence trace, …) as JSON; the format is pinned
//!   by `schemas/metrics.schema.json` and [`validate_against_schema`].
//! * **Checkpoints** — when `CampaignOptions::checkpoint_path` is set,
//!   the driver periodically snapshots the merged prefix (exact Welford
//!   state, class counts, attribution, chunk cursor). Every `f64` is
//!   stored as its IEEE-754 bit pattern, so a resumed campaign folds the
//!   same bits the uninterrupted one would and the final
//!   [`CampaignResult`](crate::estimator::CampaignResult) is
//!   bit-identical. Writes go through a temp file + rename, so a crash
//!   mid-write leaves the previous snapshot intact.
//!
//! The offline build has no serialization crate, so serialization here
//! goes through the hand-rolled JSON writer helpers and recursive-descent parser in [`crate::json`]
//! (re-exported below for compatibility).

pub use crate::json::{json_escape, validate_against_schema, JsonValue};

use crate::estimator::{CampaignKernel, CampaignResult, ClassCounts, EstimatorKind};
use crate::fastforward::FastForwardStats;
use crate::json::{bits_str, f64_from_bits_str, get_u64, json_num};
use crate::metrics::{LatencySummaries, LatencySummary, MlmcProgress};
use crate::stats::RunningStats;
use crate::trace::{counters_from_json, counters_json, CampaignCounters, KernelCounters};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use xlmc_soc::MpuBit;

// ---------------------------------------------------------------------------
// Progress events and observers
// ---------------------------------------------------------------------------

/// One progress report, emitted at a merged chunk boundary (in chunk
/// order, so a given `runs_done` always reports the same statistics at
/// any thread count — only the wall-clock fields vary run to run).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressEvent {
    /// Runs folded into the estimate so far.
    pub runs_done: usize,
    /// The campaign's requested run count.
    pub total_runs: usize,
    /// The running SSF estimate.
    pub ssf: f64,
    /// The running Welford sample variance.
    pub sample_variance: f64,
    /// The importance-sampling effective sample size `(Σw)²/Σw²`.
    pub ess: f64,
    /// The configured `--target-eps`, if any.
    pub target_eps: Option<f64>,
    /// The LLN bound `Pr[|ŜSF − SSF| ≥ eps]` at `target_eps`.
    pub lln_bound: Option<f64>,
    /// Strike-class split so far.
    pub class_counts: ClassCounts,
    /// Kernel-invariant hot-path counters so far (chunk-local memo model,
    /// see [`crate::trace`]).
    pub counters: CampaignCounters,
    /// Kernel-shape counters so far (lane occupancy, frame strata).
    pub kernel_counters: KernelCounters,
    /// Wall-clock seconds since this campaign invocation started
    /// (excludes time spent before a resumed checkpoint was written).
    pub elapsed_s: f64,
    /// Fresh (non-resumed) runs per wall-clock second.
    pub runs_per_sec: f64,
    /// Per-level MLMC progress (`None` under the single estimator):
    /// the just-merged chunk's level and the live per-level run counts.
    pub mlmc: Option<MlmcProgress>,
    /// Digest of the per-chunk wall-time histogram merged so far.
    pub chunk_wall: LatencySummary,
}

/// What the campaign driver should do after an observer callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverAction {
    /// Keep running.
    Continue,
    /// Stop at this chunk boundary. The driver returns a partial
    /// [`CampaignResult`] with
    /// [`StopReason::Aborted`](crate::estimator::StopReason); periodic
    /// checkpoints already on disk stay valid for resume.
    Abort,
}

/// Hook into the campaign driver's merge loop.
///
/// Callbacks run on the merging thread, between chunk folds — they can
/// be slow without perturbing the estimate (the statistics are already
/// folded), but they do gate throughput, so heavy observers should
/// rate-limit themselves (see [`StderrProgress`]).
pub trait CampaignObserver {
    /// Called after each chunk of runs is folded into the estimate.
    fn on_progress(&mut self, _event: &ProgressEvent) -> ObserverAction {
        ObserverAction::Continue
    }

    /// Called once with the finished (or aborted) campaign result,
    /// before the driver returns it.
    fn on_finish(&mut self, _result: &CampaignResult) {}
}

/// The do-nothing observer behind
/// [`run_campaign_with`](crate::estimator::run_campaign_with).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl CampaignObserver for NullObserver {}

/// A rate-limited progress printer for long campaigns (adopted by the
/// bench and figure binaries): one stderr line at most every
/// `min_interval`, plus the final boundary.
#[derive(Debug)]
pub struct StderrProgress {
    label: String,
    min_interval: Duration,
    last_print: Option<Instant>,
}

impl StderrProgress {
    /// A printer tagged with `label`, printing at most every 2 seconds.
    pub fn new(label: impl Into<String>) -> Self {
        Self::with_interval(label, Duration::from_secs(2))
    }

    /// A printer with an explicit minimum interval between lines.
    pub fn with_interval(label: impl Into<String>, min_interval: Duration) -> Self {
        Self {
            label: label.into(),
            min_interval,
            last_print: None,
        }
    }
}

impl CampaignObserver for StderrProgress {
    fn on_progress(&mut self, ev: &ProgressEvent) -> ObserverAction {
        let due = self
            .last_print
            .is_none_or(|t| t.elapsed() >= self.min_interval);
        if due || ev.runs_done >= ev.total_runs {
            self.last_print = Some(Instant::now());
            let bound = ev
                .lln_bound
                .map_or(String::new(), |b| format!("  lln={b:.3e}"));
            let lookups = ev.counters.conclusion_memo_hits + ev.counters.conclusion_memo_misses;
            let memo = if lookups > 0 {
                format!("  memo={:.0}%", ev.counters.conclusion_hit_rate() * 100.0)
            } else {
                String::new()
            };
            let occ = if ev.kernel_counters.lane_batches > 0 {
                format!("  occ={:.1}", ev.kernel_counters.mean_lane_occupancy())
            } else {
                String::new()
            };
            let mlmc = ev.mlmc.map_or(String::new(), |m| {
                format!("  lvl=L{}  share1={:.1}%", m.level, 100.0 * m.share1())
            });
            let lat = if ev.chunk_wall.count > 0 {
                format!(
                    "  chunk p50={:.1}ms p99={:.1}ms",
                    1e3 * ev.chunk_wall.p50_s,
                    1e3 * ev.chunk_wall.p99_s
                )
            } else {
                String::new()
            };
            eprintln!(
                "[{}] {}/{} runs  ssf={:.5}  s2={:.3e}  ess={:.0}{}{}{}{}{}  {:.0} runs/s",
                self.label,
                ev.runs_done,
                ev.total_runs,
                ev.ssf,
                ev.sample_variance,
                ev.ess,
                bound,
                memo,
                occ,
                mlmc,
                lat,
                ev.runs_per_sec,
            );
        }
        ObserverAction::Continue
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

const CHECKPOINT_FORMAT: &str = "xlmc-checkpoint-v3";

fn bit_names() -> &'static HashMap<String, MpuBit> {
    static NAMES: OnceLock<HashMap<String, MpuBit>> = OnceLock::new();
    NAMES.get_or_init(|| {
        MpuBit::all()
            .into_iter()
            .map(|b| (b.dff_name(), b))
            .collect()
    })
}

/// The multilevel half of a checkpoint: the exact per-level Welford
/// states plus the frozen sample-allocation plan, so a resumed MLMC
/// campaign schedules the same chunk levels and folds the same bits as
/// an uninterrupted one (`xlmc-checkpoint-v3`).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct MlmcCheckpointState {
    /// The frozen post-pilot level-1 share, `None` while still piloting.
    pub(crate) plan_ratio: Option<f64>,
    /// Level-0 stream `w·f_rtl`.
    pub(crate) level0: RunningStats,
    /// Level-1 correction stream `w·(f_gate − f_rtl)`.
    pub(crate) level1_diff: RunningStats,
    /// Level-1 gate marginal `w·f_gate`.
    pub(crate) level1_gate: RunningStats,
    /// Level-1 RTL marginal `w·f_rtl`.
    pub(crate) level1_rtl: RunningStats,
    /// Level tag of every merged chunk, in merge order.
    pub(crate) chunk_levels: Vec<u8>,
}

/// A crash-safe snapshot of a campaign's merged prefix.
///
/// The campaign driver merges chunk partials strictly in chunk order, so
/// the merged prefix plus the chunk cursor fully determine the rest of
/// the campaign: per-run RNG streams derive from `(seed, run_index)`
/// alone (the seed is part of the header — the "SplitMix64 stream seeds"
/// need no further state), and re-running chunks `cursor..` folds exactly
/// the bits an uninterrupted campaign would.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CampaignCheckpoint {
    pub(crate) seed: u64,
    pub(crate) requested_runs: usize,
    pub(crate) chunk_runs: usize,
    pub(crate) strategy: String,
    pub(crate) kernel: CampaignKernel,
    pub(crate) merged_chunks: usize,
    pub(crate) stats: RunningStats,
    pub(crate) w_sum: f64,
    pub(crate) w_sq_sum: f64,
    pub(crate) class_counts: ClassCounts,
    pub(crate) analytic_runs: usize,
    pub(crate) rtl_runs: usize,
    pub(crate) successes: usize,
    pub(crate) attribution: BTreeMap<MpuBit, f64>,
    pub(crate) boundaries: Vec<(usize, f64)>,
    pub(crate) counters: CampaignCounters,
    pub(crate) kernel_counters: KernelCounters,
    pub(crate) first_success: Option<u64>,
    pub(crate) estimator: EstimatorKind,
    pub(crate) mlmc: Option<MlmcCheckpointState>,
}

/// A Welford state as its exact on-disk JSON object.
fn stats_json(st: &RunningStats) -> String {
    let (count, mean, m2) = st.to_raw();
    format!(
        "{{\"count\": {count}, \"mean_bits\": {}, \"m2_bits\": {}}}",
        bits_str(mean),
        bits_str(m2)
    )
}

fn stats_from_json(v: &JsonValue, what: &str) -> Result<RunningStats, String> {
    Ok(RunningStats::from_raw(
        get_u64(v, "count").map_err(|e| format!("{what}: {e}"))?,
        f64_from_bits_str(
            v.get("mean_bits")
                .ok_or_else(|| format!("{what}: missing mean_bits"))?,
            "mean",
        )?,
        f64_from_bits_str(
            v.get("m2_bits")
                .ok_or_else(|| format!("{what}: missing m2_bits"))?,
            "m2",
        )?,
    ))
}

impl CampaignCheckpoint {
    /// Serialize to the on-disk JSON form.
    pub(crate) fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let (count, mean, m2) = self.stats.to_raw();
        let mut s = String::with_capacity(1024 + 32 * self.boundaries.len());
        s.push_str("{\n");
        let _ = writeln!(s, "  \"format\": \"{CHECKPOINT_FORMAT}\",");
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"requested_runs\": {},", self.requested_runs);
        let _ = writeln!(s, "  \"chunk_runs\": {},", self.chunk_runs);
        let _ = writeln!(s, "  \"strategy\": \"{}\",", json_escape(&self.strategy));
        let _ = writeln!(s, "  \"kernel\": \"{}\",", self.kernel.as_arg());
        let _ = writeln!(s, "  \"estimator\": \"{}\",", self.estimator.as_arg());
        match &self.mlmc {
            Some(m) => {
                let mut levels = String::with_capacity(4 * m.chunk_levels.len() + 2);
                levels.push('[');
                for (i, lvl) in m.chunk_levels.iter().enumerate() {
                    if i > 0 {
                        levels.push_str(", ");
                    }
                    let _ = write!(levels, "{lvl}");
                }
                levels.push(']');
                let _ = writeln!(
                    s,
                    "  \"mlmc\": {{\"plan_ratio_bits\": {}, \"level0\": {}, \
                     \"level1_diff\": {}, \"level1_gate\": {}, \"level1_rtl\": {}, \
                     \"chunk_levels\": {levels}}},",
                    m.plan_ratio.map_or("null".to_owned(), bits_str),
                    stats_json(&m.level0),
                    stats_json(&m.level1_diff),
                    stats_json(&m.level1_gate),
                    stats_json(&m.level1_rtl),
                );
            }
            None => s.push_str("  \"mlmc\": null,\n"),
        }
        let _ = writeln!(s, "  \"merged_chunks\": {},", self.merged_chunks);
        let _ = writeln!(
            s,
            "  \"stats\": {{\"count\": {count}, \"mean_bits\": {}, \"m2_bits\": {}}},",
            bits_str(mean),
            bits_str(m2)
        );
        let _ = writeln!(s, "  \"w_sum_bits\": {},", bits_str(self.w_sum));
        let _ = writeln!(s, "  \"w_sq_sum_bits\": {},", bits_str(self.w_sq_sum));
        let _ = writeln!(
            s,
            "  \"class_counts\": {{\"masked\": {}, \"memory_only\": {}, \"mixed\": {}}},",
            self.class_counts.masked, self.class_counts.memory_only, self.class_counts.mixed
        );
        let _ = writeln!(s, "  \"analytic_runs\": {},", self.analytic_runs);
        let _ = writeln!(s, "  \"rtl_runs\": {},", self.rtl_runs);
        let _ = writeln!(s, "  \"successes\": {},", self.successes);
        s.push_str("  \"attribution\": [");
        for (i, (bit, w)) in self.attribution.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"bit\": \"{}\", \"w_bits\": {}}}",
                json_escape(&bit.dff_name()),
                bits_str(*w)
            );
        }
        s.push_str("],\n  \"boundaries\": [");
        for (i, (runs, mean)) in self.boundaries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "[{runs}, {}]", bits_str(*mean));
        }
        s.push_str("],\n");
        let _ = writeln!(
            s,
            "  \"counters\": {},",
            counters_json(&self.counters, &self.kernel_counters)
        );
        match self.first_success {
            Some(i) => {
                let _ = writeln!(s, "  \"first_success\": {i}");
            }
            None => s.push_str("  \"first_success\": null\n"),
        }
        s.push_str("}\n");
        s
    }

    /// Deserialize the on-disk JSON form.
    pub(crate) fn from_json(src: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(src)?;
        let format = doc.get("format").and_then(JsonValue::as_str).unwrap_or("");
        if format != CHECKPOINT_FORMAT {
            return Err(format!(
                "unsupported checkpoint format {format:?} (expected {CHECKPOINT_FORMAT:?})"
            ));
        }
        let kernel = match doc.get("kernel").and_then(JsonValue::as_str) {
            Some("scalar") => CampaignKernel::Scalar,
            Some("compiled") => CampaignKernel::Compiled,
            other => return Err(format!("invalid checkpoint kernel {other:?}")),
        };
        let estimator = match doc.get("estimator").and_then(JsonValue::as_str) {
            Some("single") => EstimatorKind::Single,
            Some("mlmc") => EstimatorKind::Mlmc,
            other => return Err(format!("invalid checkpoint estimator {other:?}")),
        };
        let mlmc = match doc.get("mlmc") {
            Some(JsonValue::Null) => None,
            Some(m) => {
                let plan_ratio = match m.get("plan_ratio_bits") {
                    Some(JsonValue::Null) => None,
                    Some(v) => Some(f64_from_bits_str(v, "plan_ratio")?),
                    None => return Err("mlmc state missing plan_ratio_bits".to_owned()),
                };
                let chunk_levels = m
                    .get("chunk_levels")
                    .and_then(JsonValue::as_arr)
                    .ok_or("mlmc state missing chunk_levels")?
                    .iter()
                    .map(|e| {
                        e.as_u64()
                            .filter(|&x| x <= 1)
                            .map(|x| x as u8)
                            .ok_or_else(|| "invalid chunk_levels entry".to_owned())
                    })
                    .collect::<Result<Vec<u8>, String>>()?;
                Some(MlmcCheckpointState {
                    plan_ratio,
                    level0: stats_from_json(m.get("level0").ok_or("missing level0")?, "level0")?,
                    level1_diff: stats_from_json(
                        m.get("level1_diff").ok_or("missing level1_diff")?,
                        "level1_diff",
                    )?,
                    level1_gate: stats_from_json(
                        m.get("level1_gate").ok_or("missing level1_gate")?,
                        "level1_gate",
                    )?,
                    level1_rtl: stats_from_json(
                        m.get("level1_rtl").ok_or("missing level1_rtl")?,
                        "level1_rtl",
                    )?,
                    chunk_levels,
                })
            }
            None => return Err("missing mlmc field".to_owned()),
        };
        let stats_obj = doc.get("stats").ok_or("missing stats object")?;
        let stats = RunningStats::from_raw(
            get_u64(stats_obj, "count")?,
            f64_from_bits_str(
                stats_obj.get("mean_bits").ok_or("missing mean_bits")?,
                "mean",
            )?,
            f64_from_bits_str(stats_obj.get("m2_bits").ok_or("missing m2_bits")?, "m2")?,
        );
        let counts_obj = doc.get("class_counts").ok_or("missing class_counts")?;
        let class_counts = ClassCounts {
            masked: get_u64(counts_obj, "masked")? as usize,
            memory_only: get_u64(counts_obj, "memory_only")? as usize,
            mixed: get_u64(counts_obj, "mixed")? as usize,
        };
        let mut attribution = BTreeMap::new();
        for entry in doc
            .get("attribution")
            .and_then(JsonValue::as_arr)
            .ok_or("missing attribution array")?
        {
            let name = entry
                .get("bit")
                .and_then(JsonValue::as_str)
                .ok_or("attribution entry missing bit name")?;
            let bit = *bit_names()
                .get(name)
                .ok_or_else(|| format!("unknown register bit {name:?}"))?;
            let w = f64_from_bits_str(
                entry
                    .get("w_bits")
                    .ok_or("attribution entry missing w_bits")?,
                "attribution weight",
            )?;
            attribution.insert(bit, w);
        }
        let mut boundaries = Vec::new();
        for entry in doc
            .get("boundaries")
            .and_then(JsonValue::as_arr)
            .ok_or("missing boundaries array")?
        {
            let pair = entry.as_arr().ok_or("boundary entry is not a pair")?;
            if pair.len() != 2 {
                return Err("boundary entry is not a pair".to_owned());
            }
            let runs = pair[0].as_u64().ok_or("boundary run count")? as usize;
            boundaries.push((runs, f64_from_bits_str(&pair[1], "boundary mean")?));
        }
        let (counters, kernel_counters) =
            counters_from_json(doc.get("counters").ok_or("missing counters object")?)?;
        let first_success = match doc.get("first_success") {
            Some(JsonValue::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or("first_success: expected an integer or null")?,
            ),
            None => return Err("missing first_success".to_owned()),
        };
        Ok(Self {
            seed: get_u64(&doc, "seed")?,
            requested_runs: get_u64(&doc, "requested_runs")? as usize,
            chunk_runs: get_u64(&doc, "chunk_runs")? as usize,
            strategy: doc
                .get("strategy")
                .and_then(JsonValue::as_str)
                .ok_or("missing strategy")?
                .to_owned(),
            kernel,
            merged_chunks: get_u64(&doc, "merged_chunks")? as usize,
            stats,
            w_sum: f64_from_bits_str(doc.get("w_sum_bits").ok_or("missing w_sum_bits")?, "w_sum")?,
            w_sq_sum: f64_from_bits_str(
                doc.get("w_sq_sum_bits").ok_or("missing w_sq_sum_bits")?,
                "w_sq_sum",
            )?,
            class_counts,
            analytic_runs: get_u64(&doc, "analytic_runs")? as usize,
            rtl_runs: get_u64(&doc, "rtl_runs")? as usize,
            successes: get_u64(&doc, "successes")? as usize,
            attribution,
            boundaries,
            counters,
            kernel_counters,
            first_success,
            estimator,
            mlmc,
        })
    }

    /// Write the checkpoint crash-safely: temp file in the same
    /// directory, then an atomic rename over the target.
    pub(crate) fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }

    /// Load a checkpoint; `Ok(None)` when the file does not exist yet.
    pub(crate) fn load(path: &Path) -> io::Result<Option<Self>> {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Self::from_json(&src)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// The metrics format tag pinned by `schemas/metrics.schema.json`.
/// `v2` added `host_cpus` and the `fast_forward` counter object; `v3`
/// added `kernel`, the `program` shape object and the `scheduler`
/// contention object; `v4` added `estimator` and the nullable `mlmc`
/// per-level variance/cost/allocation object; `v5` moved `elapsed_s` and
/// `runs_per_sec` under a `timing` object that also carries the quantile
/// digests of the five engine latency histograms; `v6` renamed the
/// `scheduler` object's memo-front counters to `memo_hits`/`memo_misses`,
/// the probes of the per-worker conclusion memos; `v7` added the kernel
/// counters `timed_lanes` and `resimulated_lanes`; `v8` dropped the
/// on/off flag and the three counters of the removed reconvergence early
/// exit from `fast_forward`, which now holds only the snapshot-cache
/// counters.
pub const METRICS_FORMAT: &str = "xlmc-metrics-v8";

/// Shape of the compiled gate program driving the campaign (all zeros
/// when the model netlist could not be levelized — never the case for the
/// built-in MPU).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgramStats {
    /// Combinational logic levels of the netlist.
    pub levels: usize,
    /// Straight-line ops (combinational gates incl. output markers).
    pub gates: usize,
    /// Monte Carlo runs packed per transient pass by the active kernel.
    pub lane_width: usize,
    /// Packed transient passes executed (merged `lane_batches`).
    pub sweeps: usize,
}

/// Scheduling/contention observability for the multi-thread merge path —
/// all schedule-dependent, which is why they live in the metrics meta and
/// not in the thread-invariant [`CampaignResult`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Worker threads that executed chunks.
    pub workers: usize,
    /// Seconds the merger spent blocked on `recv` for the next partial.
    pub merge_wait_s: f64,
    /// Peak size of the chunk reorder buffer (partials ahead of the merge
    /// cursor).
    pub reorder_peak: usize,
    /// Conclusion-memo probes answered by the probing worker's memo,
    /// summed over workers.
    pub memo_hits: u64,
    /// Conclusion-memo probes that had to conclude the pattern, summed
    /// over workers.
    pub memo_misses: u64,
}

/// Campaign-level context the metrics file records alongside the result.
#[derive(Debug, Clone, Copy)]
pub struct MetricsMeta {
    /// The campaign seed.
    pub seed: u64,
    /// The requested run count (`n` in the result may be smaller after
    /// an early stop).
    pub requested_runs: usize,
    /// The configured `--target-eps`, if any.
    pub target_eps: Option<f64>,
    /// The configured `--target-confidence`.
    pub target_confidence: f64,
    /// Wall-clock seconds of this invocation.
    pub elapsed_s: f64,
    /// Fresh runs per wall-clock second.
    pub runs_per_sec: f64,
    /// Logical CPUs available on the host that ran the campaign.
    pub host_cpus: usize,
    /// RTL snapshot-cache counters, rendered as the `fast_forward` object
    /// (schedule-dependent — that is why they live here and not in the
    /// kernel/thread-invariant `CampaignResult`).
    pub fast_forward_stats: FastForwardStats,
    /// The `--kernel` spelling of the per-chunk executor.
    pub kernel: CampaignKernel,
    /// Shape of the compiled gate program / lane packing.
    pub program: ProgramStats,
    /// Merge-path scheduling and memo-contention observability.
    pub scheduler: SchedulerStats,
    /// Quantile digests of the engine latency histograms (chunk wall,
    /// merge wait, snapshot restore, kernel sweep, checkpoint write).
    pub latency: LatencySummaries,
}

/// Render the finished campaign as the metrics JSON document.
pub fn metrics_json(result: &CampaignResult, meta: &MetricsMeta) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(1024 + 32 * result.trace.len());
    s.push_str("{\n");
    let _ = writeln!(s, "  \"format\": \"{METRICS_FORMAT}\",");
    let _ = writeln!(s, "  \"strategy\": \"{}\",", json_escape(&result.strategy));
    let _ = writeln!(s, "  \"seed\": {},", meta.seed);
    let _ = writeln!(s, "  \"requested_runs\": {},", meta.requested_runs);
    let _ = writeln!(s, "  \"n\": {},", result.n);
    let _ = writeln!(s, "  \"ssf\": {},", json_num(result.ssf));
    let _ = writeln!(
        s,
        "  \"sample_variance\": {},",
        json_num(result.sample_variance)
    );
    let _ = writeln!(s, "  \"ess\": {},", json_num(result.ess));
    let _ = writeln!(s, "  \"stop_reason\": \"{}\",", result.stop.as_str());
    let _ = writeln!(
        s,
        "  \"target_eps\": {},",
        meta.target_eps.map_or("null".to_owned(), json_num)
    );
    let _ = writeln!(
        s,
        "  \"target_confidence\": {},",
        json_num(meta.target_confidence)
    );
    let _ = writeln!(
        s,
        "  \"lln_bound_at_target\": {},",
        meta.target_eps
            .map_or("null".to_owned(), |e| json_num(result.lln_bound(e)))
    );
    let _ = writeln!(
        s,
        "  \"timing\": {{\"elapsed_s\": {}, \"runs_per_sec\": {}, \"latency\": {{",
        json_num(meta.elapsed_s),
        json_num(meta.runs_per_sec),
    );
    let digests = meta.latency.iter_named();
    for (i, (name, d)) in digests.iter().enumerate() {
        let _ = writeln!(
            s,
            "    \"{name}\": {{\"count\": {}, \"p50_s\": {}, \"p90_s\": {}, \"p99_s\": {}, \
             \"max_s\": {}, \"sum_s\": {}}}{}",
            d.count,
            json_num(d.p50_s),
            json_num(d.p90_s),
            json_num(d.p99_s),
            json_num(d.max_s),
            json_num(d.sum_s),
            if i + 1 < digests.len() { "," } else { "" },
        );
    }
    s.push_str("  }},\n");
    let _ = writeln!(s, "  \"host_cpus\": {},", meta.host_cpus);
    let _ = writeln!(s, "  \"kernel\": \"{}\",", meta.kernel.as_arg());
    let _ = writeln!(s, "  \"estimator\": \"{}\",", result.estimator.as_arg());
    match &result.mlmc {
        Some(m) => {
            let _ = writeln!(
                s,
                "  \"mlmc\": {{\"n0\": {}, \"n1\": {}, \"mean0\": {}, \"mean1_diff\": {}, \
                 \"mean1_gate\": {}, \"mean1_rtl\": {}, \"s2_0\": {}, \"s2_1\": {}, \
                 \"cost0\": {}, \"cost1\": {}, \"share1\": {}, \"optimal_share1\": {}, \
                 \"plan_ratio\": {}, \"estimator_variance\": {}}},",
                m.n0,
                m.n1,
                json_num(m.mean0),
                json_num(m.mean1_diff),
                json_num(m.mean1_gate),
                json_num(m.mean1_rtl),
                json_num(m.var0),
                json_num(m.var1_diff),
                json_num(m.cost0),
                json_num(m.cost1),
                json_num(m.share1()),
                json_num(m.optimal_share1()),
                m.plan_ratio.map_or("null".to_owned(), json_num),
                json_num(m.estimator_variance()),
            );
        }
        None => s.push_str("  \"mlmc\": null,\n"),
    }
    let p = &meta.program;
    let _ = writeln!(
        s,
        "  \"program\": {{\"levels\": {}, \"gates\": {}, \"lane_width\": {}, \
         \"sweeps\": {}}},",
        p.levels, p.gates, p.lane_width, p.sweeps,
    );
    let sc = &meta.scheduler;
    let _ = writeln!(
        s,
        "  \"scheduler\": {{\"workers\": {}, \"merge_wait_s\": {}, \"reorder_peak\": {}, \
         \"memo_hits\": {}, \"memo_misses\": {}}},",
        sc.workers,
        json_num(sc.merge_wait_s),
        sc.reorder_peak,
        sc.memo_hits,
        sc.memo_misses,
    );
    let ff = &meta.fast_forward_stats;
    let _ = writeln!(
        s,
        "  \"fast_forward\": {{\"rtl_resumes\": {}, \"checkpoint_cache_hits\": {}, \
         \"checkpoint_cache_misses\": {}, \"checkpoint_cache_evictions\": {}}},",
        ff.rtl_resumes,
        ff.checkpoint_cache_hits,
        ff.checkpoint_cache_misses,
        ff.checkpoint_cache_evictions,
    );
    let _ = writeln!(
        s,
        "  \"class_counts\": {{\"masked\": {}, \"memory_only\": {}, \"mixed\": {}}},",
        result.class_counts.masked, result.class_counts.memory_only, result.class_counts.mixed
    );
    let _ = writeln!(s, "  \"analytic_runs\": {},", result.analytic_runs);
    let _ = writeln!(s, "  \"rtl_runs\": {},", result.rtl_runs);
    let _ = writeln!(s, "  \"successes\": {},", result.successes);
    let _ = writeln!(
        s,
        "  \"first_success\": {},",
        result
            .first_success
            .map_or("null".to_owned(), |i| i.to_string())
    );
    let _ = writeln!(
        s,
        "  \"counters\": {},",
        counters_json(&result.counters, &result.kernel_counters)
    );
    s.push_str("  \"trace\": [");
    for (i, (runs, ssf)) in result.trace.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "[{runs}, {}]", json_num(*ssf));
    }
    s.push_str("]\n}\n");
    s
}

/// Write the metrics file (temp + rename, like checkpoints).
pub fn write_metrics(path: &Path, result: &CampaignResult, meta: &MetricsMeta) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, metrics_json(result, meta))?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::StopReason;

    #[test]
    fn json_round_trips_checkpoint_bits_exactly() {
        let mut attribution = BTreeMap::new();
        attribution.insert(MpuBit::Enable, 0.1 + 0.2); // a value with ugly bits
        attribution.insert(MpuBit::Base(1, 3), f64::MIN_POSITIVE);
        let mut stats = RunningStats::new();
        for x in [0.0, 1.25, 1.0 / 3.0, 7e-300] {
            stats.push(x);
        }
        let ck = CampaignCheckpoint {
            seed: 0xDEAD_BEEF,
            requested_runs: 4096,
            chunk_runs: 512,
            strategy: "importance".to_owned(),
            kernel: CampaignKernel::Scalar,
            merged_chunks: 3,
            stats,
            w_sum: 1234.5678901234567,
            w_sq_sum: 9.87654321e-12,
            class_counts: ClassCounts {
                masked: 100,
                memory_only: 20,
                mixed: 7,
            },
            analytic_runs: 20,
            rtl_runs: 7,
            successes: 5,
            attribution,
            boundaries: vec![(512, 0.001953125), (1024, 0.1 / 3.0), (1536, 0.25)],
            counters: CampaignCounters {
                cycle_memo_hits: 12,
                cycle_memo_misses: 34,
                conclusion_memo_hits: 5,
                conclusion_memo_misses: 6,
                conclusions_analytic: 20,
                conclusions_rtl: 7,
                soc_clones: 3,
                soc_restores: 4,
                pulses_propagated: 9000,
                out_of_run: 2,
            },
            kernel_counters: KernelCounters {
                lane_batches: 24,
                lanes_occupied: 1500,
                frame_groups: 70,
                gates_visited: 123456,
                timed_lanes: 321,
                resimulated_lanes: 9,
            },
            first_success: Some(777),
            estimator: EstimatorKind::Mlmc,
            mlmc: Some(MlmcCheckpointState {
                plan_ratio: Some(0.1 + 0.2),
                level0: {
                    let mut st = RunningStats::new();
                    st.push(1.0 / 7.0);
                    st.push(0.0);
                    st
                },
                level1_diff: {
                    let mut st = RunningStats::new();
                    st.push(-1.0 / 3.0);
                    st
                },
                level1_gate: RunningStats::new(),
                level1_rtl: RunningStats::new(),
                chunk_levels: vec![1, 0, 1, 0, 0, 0, 1],
            }),
        };
        let round = CampaignCheckpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(round, ck);
        let m = round.mlmc.as_ref().unwrap();
        assert_eq!(
            m.plan_ratio.unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits(),
            "plan ratio must round-trip bit-exactly"
        );
        let (_, d0, _) = m.level1_diff.to_raw();
        assert_eq!(d0.to_bits(), (-1.0f64 / 3.0).to_bits());
        // Bit-exactness of the Welford state, not just PartialEq.
        let (n0, m0, s0) = ck.stats.to_raw();
        let (n1, m1, s1) = round.stats.to_raw();
        assert_eq!(
            (n0, m0.to_bits(), s0.to_bits()),
            (n1, m1.to_bits(), s1.to_bits())
        );
        assert_eq!(round.w_sum.to_bits(), ck.w_sum.to_bits());
        for ((_, a), (_, b)) in round.boundaries.iter().zip(&ck.boundaries) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn checkpoint_rejects_foreign_formats_and_bad_bits() {
        assert!(CampaignCheckpoint::from_json("{}").is_err());
        assert!(CampaignCheckpoint::from_json("{\"format\": \"something-else\"}").is_err());
        assert!(CampaignCheckpoint::from_json("not json at all").is_err());
    }

    /// A checkpoint written by the removed 64-lane kernel names a kernel
    /// this build does not have: reading it is an error naming the value,
    /// not a silent fallback to another kernel.
    #[test]
    fn checkpoint_rejects_the_removed_batched_kernel() {
        let doc = |kernel: &str| {
            format!("{{\"format\": \"{CHECKPOINT_FORMAT}\", \"kernel\": \"{kernel}\"}}")
        };
        let err = CampaignCheckpoint::from_json(&doc("batched")).unwrap_err();
        assert_eq!(err, "invalid checkpoint kernel Some(\"batched\")");
        // A kernel this build has gets past the kernel field.
        let err = CampaignCheckpoint::from_json(&doc("compiled")).unwrap_err();
        assert!(!err.contains("kernel"), "{err}");
    }

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let doc =
            JsonValue::parse(r#"{"a": [1, -2.5e3, "x\n\"y\"", true, null], "b": {"c": 0.125}}"#)
                .unwrap();
        let arr = doc.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x\n\"y\""));
        assert_eq!(arr[3], JsonValue::Bool(true));
        assert_eq!(arr[4], JsonValue::Null);
        assert_eq!(
            doc.get("b")
                .and_then(|b| b.get("c"))
                .and_then(JsonValue::as_f64),
            Some(0.125)
        );
        assert!(JsonValue::parse("{\"a\": 1} trailing").is_err());
        assert!(JsonValue::parse("{\"a\": }").is_err());
    }

    #[test]
    fn metrics_json_is_parseable_and_self_consistent() {
        let result = CampaignResult {
            strategy: "random".to_owned(),
            n: 1024,
            ssf: 0.017,
            sample_variance: 1.2e-2,
            ess: 1020.5,
            successes: 17,
            trace: vec![(512, 0.015), (1024, 0.017)],
            class_counts: ClassCounts {
                masked: 900,
                memory_only: 100,
                mixed: 24,
            },
            analytic_runs: 100,
            rtl_runs: 24,
            attribution: BTreeMap::new(),
            stop: StopReason::TargetEps,
            counters: CampaignCounters::default(),
            kernel_counters: KernelCounters::default(),
            first_success: Some(40),
            estimator: EstimatorKind::Mlmc,
            mlmc: Some(crate::multilevel::MlmcSummary {
                n0: 900,
                n1: 124,
                mean0: 0.016,
                var0: 2.0e-2,
                mean1_diff: 0.001,
                var1_diff: 1.0e-4,
                mean1_gate: 0.018,
                mean1_rtl: 0.017,
                cost0: 1.0,
                cost1: 9.0,
                plan_ratio: Some(0.125),
                chunk_levels: vec![1, 0],
            }),
        };
        let meta = MetricsMeta {
            seed: 7,
            requested_runs: 4096,
            target_eps: Some(0.05),
            target_confidence: 0.95,
            elapsed_s: 1.5,
            runs_per_sec: 682.6,
            host_cpus: 8,
            fast_forward_stats: FastForwardStats {
                rtl_resumes: 24,
                checkpoint_cache_hits: 20,
                checkpoint_cache_misses: 4,
                checkpoint_cache_evictions: 1,
            },
            kernel: CampaignKernel::Compiled,
            program: ProgramStats {
                levels: 9,
                gates: 321,
                lane_width: 256,
                sweeps: 4,
            },
            scheduler: SchedulerStats {
                workers: 2,
                merge_wait_s: 0.25,
                reorder_peak: 3,
                memo_hits: 10,
                memo_misses: 14,
            },
            latency: {
                let mut shard = crate::metrics::LatencyShard::default();
                shard.chunk_wall.record(0.012);
                shard.chunk_wall.record(0.034);
                shard.checkpoint_write.record(0.002);
                shard.summaries()
            },
        };
        let doc = JsonValue::parse(&metrics_json(&result, &meta)).unwrap();
        assert_eq!(
            doc.get("format").and_then(JsonValue::as_str),
            Some(METRICS_FORMAT)
        );
        assert_eq!(doc.get("n").and_then(JsonValue::as_u64), Some(1024));
        assert_eq!(
            doc.get("stop_reason").and_then(JsonValue::as_str),
            Some("target_eps")
        );
        assert_eq!(doc.get("ess").and_then(JsonValue::as_f64), Some(1020.5));
        assert_eq!(
            doc.get("first_success").and_then(JsonValue::as_u64),
            Some(40)
        );
        assert!(doc.get("counters").and_then(|c| c.get("kernel")).is_some());
        assert_eq!(doc.get("host_cpus").and_then(JsonValue::as_u64), Some(8));
        assert_eq!(
            doc.get("kernel").and_then(JsonValue::as_str),
            Some("compiled")
        );
        assert_eq!(
            doc.get("estimator").and_then(JsonValue::as_str),
            Some("mlmc")
        );
        let mlmc = doc.get("mlmc").unwrap();
        assert_eq!(mlmc.get("n0").and_then(JsonValue::as_u64), Some(900));
        assert_eq!(mlmc.get("n1").and_then(JsonValue::as_u64), Some(124));
        assert_eq!(
            mlmc.get("plan_ratio").and_then(JsonValue::as_f64),
            Some(0.125)
        );
        assert!(mlmc.get("estimator_variance").and_then(JsonValue::as_f64) > Some(0.0));
        let prog = doc.get("program").unwrap();
        assert_eq!(prog.get("levels").and_then(JsonValue::as_u64), Some(9));
        assert_eq!(
            prog.get("lane_width").and_then(JsonValue::as_u64),
            Some(256)
        );
        let sched = doc.get("scheduler").unwrap();
        assert_eq!(sched.get("workers").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            sched.get("memo_misses").and_then(JsonValue::as_u64),
            Some(14)
        );
        let Some(JsonValue::Obj(ff)) = doc.get("fast_forward") else {
            panic!("fast_forward must be an object");
        };
        let ff: Vec<(&str, Option<u64>)> =
            ff.iter().map(|(k, v)| (k.as_str(), v.as_u64())).collect();
        assert_eq!(
            ff,
            [
                ("rtl_resumes", Some(24)),
                ("checkpoint_cache_hits", Some(20)),
                ("checkpoint_cache_misses", Some(4)),
                ("checkpoint_cache_evictions", Some(1)),
            ]
        );
        let timing = doc.get("timing").unwrap();
        assert_eq!(
            timing.get("elapsed_s").and_then(JsonValue::as_f64),
            Some(1.5)
        );
        assert_eq!(
            timing.get("runs_per_sec").and_then(JsonValue::as_f64),
            Some(682.6)
        );
        let lat = timing.get("latency").unwrap();
        let cw = lat.get("chunk_wall").unwrap();
        assert_eq!(cw.get("count").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(cw.get("max_s").and_then(JsonValue::as_f64), Some(0.034));
        assert_eq!(
            lat.get("merge_wait")
                .and_then(|h| h.get("count"))
                .and_then(JsonValue::as_u64),
            Some(0)
        );
        assert!(
            doc.get("elapsed_s").is_none(),
            "elapsed_s moved into timing"
        );
        let trace = doc.get("trace").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[1].as_arr().unwrap()[0].as_u64(), Some(1024));
    }

    #[test]
    fn schema_validator_accepts_and_rejects() {
        let schema = JsonValue::parse(
            r#"{
                "type": "object",
                "required": ["name", "count"],
                "properties": {
                    "name": {"type": "string", "enum": ["a", "b"]},
                    "count": {"type": "integer"},
                    "extra": {"type": ["number", "null"]},
                    "list": {"type": "array", "items": {"type": "number"}}
                }
            }"#,
        )
        .unwrap();
        let ok = JsonValue::parse(r#"{"name": "a", "count": 3, "extra": null, "list": [1, 2.5]}"#)
            .unwrap();
        assert_eq!(validate_against_schema(&ok, &schema), Ok(()));
        let missing = JsonValue::parse(r#"{"name": "a"}"#).unwrap();
        assert!(validate_against_schema(&missing, &schema)
            .unwrap_err()
            .contains("count"));
        let bad_enum = JsonValue::parse(r#"{"name": "z", "count": 3}"#).unwrap();
        assert!(validate_against_schema(&bad_enum, &schema).is_err());
        let bad_type = JsonValue::parse(r#"{"name": "a", "count": 3.5}"#).unwrap();
        assert!(validate_against_schema(&bad_type, &schema).is_err());
        let bad_item = JsonValue::parse(r#"{"name": "a", "count": 3, "list": ["x"]}"#).unwrap();
        assert!(validate_against_schema(&bad_item, &schema).is_err());
    }

    #[test]
    fn stderr_progress_continues() {
        let mut p = StderrProgress::with_interval("test", Duration::from_secs(3600));
        let ev = ProgressEvent {
            runs_done: 512,
            total_runs: 1024,
            ssf: 0.01,
            sample_variance: 1e-3,
            ess: 500.0,
            target_eps: None,
            lln_bound: None,
            class_counts: ClassCounts::default(),
            counters: CampaignCounters::default(),
            kernel_counters: KernelCounters::default(),
            elapsed_s: 0.5,
            runs_per_sec: 1024.0,
            mlmc: Some(MlmcProgress {
                level: 1,
                n0: 256,
                n1: 256,
            }),
            chunk_wall: LatencySummary {
                count: 1,
                p50_s: 0.01,
                p90_s: 0.01,
                p99_s: 0.01,
                max_s: 0.01,
                sum_s: 0.01,
            },
        };
        assert_eq!(p.on_progress(&ev), ObserverAction::Continue);
        // Second call inside the interval is rate-limited but still
        // continues (and the final boundary always prints).
        assert_eq!(p.on_progress(&ev), ObserverAction::Continue);
    }
}
