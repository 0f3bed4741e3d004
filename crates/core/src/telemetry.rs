//! Campaign telemetry: structured progress events and convergence
//! metrics for the Monte Carlo engine.
//!
//! Two consumers hang off the campaign driver's in-order merge step (the
//! third, the checkpoint, is the merge state itself: [`crate::checkpoint`]):
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
//!
//! The offline build has no serialization crate, so serialization here
//! goes through the hand-rolled JSON writer helpers and recursive-descent parser in [`crate::json`]
//! (re-exported below for compatibility).

pub use crate::json::{json_escape, validate_against_schema, JsonValue};

use crate::estimator::{CampaignKernel, CampaignResult, ClassCounts};
use crate::json::json_num;
use crate::metrics::{LatencySummaries, LatencySummary, MlmcProgress, PhaseTimes};
use crate::resume::ResumeStats;
use crate::trace::{counters_json, CampaignCounters, KernelCounters};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

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
/// counters; `v9` added `module_resolved` to `fast_forward`, the resumes
/// the faulty MPU settled alone; `v10` renamed `fast_forward` to `resume`
/// and added the scheduler's `strike_memo_hits`, the runs the compiled
/// kernel's per-worker strike memos concluded without a lane; `v11` added
/// `mpu_steps` and `idle_skipped` to `resume`, the cycles the faulty MPU
/// was stepped alone and the idle cycles it jumped, and `module_resolved`
/// now also counts errors still private to the MPU when the golden run
/// halts; `v12` added the `timing.phases` sums, the single estimator's
/// chunk wall time per phase (the scalar kernel fills the draw, conclude
/// and fold sums only), and the scheduler's `handle_recalls`, the
/// strike-memo hits whose record came from a settled outcome handle;
/// `v13` added the scheduler's `discarded_runs`, the runs workers executed
/// that the merge did not take (past an early stop, an abort or an error,
/// in other workers' chunks or in the rest of a compiled window).
pub const METRICS_FORMAT: &str = "xlmc-metrics-v13";

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
    /// Runs the compiled kernel concluded from a worker's strike memo
    /// instead of a lane, summed over workers. In a campaign that ran
    /// every chunk in this invocation, `lanes_occupied + strike_memo_hits
    /// + out_of_run == n`.
    pub strike_memo_hits: u64,
    /// Of `strike_memo_hits`, the runs whose record came straight from a
    /// settled outcome handle (a conclusion-memo slot), with no register
    /// rebuild, hardening pass or hash probe.
    pub handle_recalls: u64,
    /// Runs the workers drew, struck or concluded that the merge did not
    /// take: the chunks past an early stop, an abort or an error, in other
    /// workers' hands or in the rest of a compiled window. 0 for a campaign
    /// that ran to its end.
    pub discarded_runs: u64,
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
    /// RTL snapshot-cache counters, rendered as the `resume` object
    /// (schedule-dependent — that is why they live here and not in the
    /// kernel/thread-invariant `CampaignResult`).
    pub resume_stats: ResumeStats,
    /// The `--kernel` spelling of the per-chunk executor.
    pub kernel: CampaignKernel,
    /// Shape of the compiled gate program / lane packing.
    pub program: ProgramStats,
    /// Merge-path scheduling and memo-contention observability.
    pub scheduler: SchedulerStats,
    /// Quantile digests of the engine latency histograms (chunk wall,
    /// merge wait, snapshot restore, kernel sweep, checkpoint write).
    pub latency: LatencySummaries,
    /// The single estimator's chunk wall time per phase, summed.
    pub phases: PhaseTimes,
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
    s.push_str("  }, \"phases\": {");
    for (i, (name, sum)) in meta.phases.iter_named().iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(s, "{sep}\"{name}\": {}", json_num(*sum));
    }
    s.push_str("}},\n");
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
         \"memo_hits\": {}, \"memo_misses\": {}, \"strike_memo_hits\": {}, \
         \"handle_recalls\": {}, \"discarded_runs\": {}}},",
        sc.workers,
        json_num(sc.merge_wait_s),
        sc.reorder_peak,
        sc.memo_hits,
        sc.memo_misses,
        sc.strike_memo_hits,
        sc.handle_recalls,
        sc.discarded_runs,
    );
    let ff = &meta.resume_stats;
    let _ = writeln!(
        s,
        "  \"resume\": {{\"rtl_resumes\": {}, \"module_resolved\": {}, \
         \"mpu_steps\": {}, \"idle_skipped\": {}, \
         \"checkpoint_cache_hits\": {}, \"checkpoint_cache_misses\": {}, \
         \"checkpoint_cache_evictions\": {}}},",
        ff.rtl_resumes,
        ff.module_resolved,
        ff.mpu_steps,
        ff.idle_skipped,
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
    use crate::estimator::{EstimatorKind, StopReason};
    use std::collections::BTreeMap;

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
            resume_stats: ResumeStats {
                rtl_resumes: 27,
                module_resolved: 3,
                mpu_steps: 41,
                idle_skipped: 17,
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
                strike_memo_hits: 5,
                handle_recalls: 4,
                discarded_runs: 512,
            },
            latency: {
                let mut shard = crate::metrics::LatencyShard::default();
                shard.chunk_wall.record(0.012);
                shard.chunk_wall.record(0.034);
                shard.checkpoint_write.record(0.002);
                shard.summaries()
            },
            phases: PhaseTimes {
                draw_s: 0.01,
                lanes_s: 0.005,
                sweep_s: 0.004,
                conclude_s: 0.02,
                fold_s: 0.003,
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
        assert_eq!(
            sched.get("strike_memo_hits").and_then(JsonValue::as_u64),
            Some(5)
        );
        assert_eq!(
            sched.get("handle_recalls").and_then(JsonValue::as_u64),
            Some(4)
        );
        assert_eq!(
            sched.get("discarded_runs").and_then(JsonValue::as_u64),
            Some(512)
        );
        let Some(JsonValue::Obj(ff)) = doc.get("resume") else {
            panic!("resume must be an object");
        };
        let ff: Vec<(&str, Option<u64>)> =
            ff.iter().map(|(k, v)| (k.as_str(), v.as_u64())).collect();
        assert_eq!(
            ff,
            [
                ("rtl_resumes", Some(27)),
                ("module_resolved", Some(3)),
                ("mpu_steps", Some(41)),
                ("idle_skipped", Some(17)),
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
        let Some(JsonValue::Obj(phases)) = timing.get("phases") else {
            panic!("timing.phases must be an object");
        };
        let phases: Vec<(&str, Option<f64>)> = phases
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_f64()))
            .collect();
        assert_eq!(
            phases,
            [
                ("draw_s", Some(0.01)),
                ("lanes_s", Some(0.005)),
                ("sweep_s", Some(0.004)),
                ("conclude_s", Some(0.02)),
                ("fold_s", Some(0.003)),
            ]
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
