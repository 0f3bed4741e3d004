//! Campaign telemetry: the boundary record of the merged prefix and every
//! surface that renders it.
//!
//! The campaign driver folds chunk partials in chunk order
//! ([`crate::estimator`]). At every merged chunk boundary it builds one
//! [`ProgressEvent`] — running SSF, Welford variance, the §3.3 LLN bound at
//! the configured `--target-eps`, the importance-sampling effective sample
//! size `(Σw)²/Σw²`, per-class strike counts and wall-clock throughput —
//! and hands it to the observer ([`CampaignObserver`], which can abort the
//! campaign cleanly at that boundary) and to the campaign's
//! [`TelemetrySink`]. The sink keeps the last record, the merged latency
//! histograms and the campaign-level counts (checkpoints written, stalls,
//! workers), and every surface renders from them:
//!
//! * the stderr progress line ([`StderrProgress`], [`progress_line`]);
//! * `--events PATH`: the append-only JSONL lifecycle log
//!   (`schemas/events.schema.json`), flushed per line so a killed
//!   campaign leaves a readable record;
//! * `--prom PATH`: a Prometheus text snapshot of the last record,
//!   rewritten atomically (temp + rename) at checkpoint cadence boundaries
//!   at most once a second and at campaign end, for a textfile collector;
//! * `--metrics PATH`: the finished campaign as JSON ([`metrics_json`],
//!   pinned by `schemas/metrics.schema.json`);
//! * the `[resume]`, `[kernel]` and `[scheduler]` lines `--trace` prints
//!   ([`summary_lines`]).
//!
//! Everything here is a **pure observer**. Latency observations are wall
//! clock and vary run to run, but they ride the path the statistics take:
//! each worker records into a per-chunk [`LatencyShard`] that travels
//! inside the chunk partial, and the merger folds shards in chunk order.
//! No telemetry value feeds back into a sample, a weight or a stopping
//! decision, so results are bit-identical with every surface on or off
//! (`tests/campaign_telemetry.rs` checks this across kernels × threads ×
//! estimators). With every surface off, a boundary formats no string.
//!
//! Spans, counters and provenance live in [`crate::trace`]; the JSON
//! writer helpers, parser and schema validator in [`crate::json`].

use crate::estimator::{
    CampaignError, CampaignKernel, CampaignOptions, CampaignResult, ClassCounts,
};
use crate::json::{bits_str, json_escape, json_num};
use crate::resume::ResumeStats;
use crate::stats::RunningStats;
use crate::trace::{counters_json, CampaignCounters, KernelCounters};
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The boundary record and its observers
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

/// Per-level MLMC progress attached to a [`ProgressEvent`] under
/// `--estimator mlmc`: which level the just-merged chunk ran at and the
/// live per-level run counts, so [`StderrProgress`] can report per-level
/// state instead of one blended line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlmcProgress {
    /// Level tag of the chunk just merged (`LEVEL_RTL` = 0,
    /// `LEVEL_GATE` = 1).
    pub level: u8,
    /// Runs merged into the level-0 stream so far.
    pub n0: u64,
    /// Runs merged into the level-1 streams so far.
    pub n1: u64,
}

impl MlmcProgress {
    /// The live level-1 share of merged runs (0 when nothing merged).
    pub fn share1(&self) -> f64 {
        let total = self.n0 + self.n1;
        if total == 0 {
            0.0
        } else {
            self.n1 as f64 / total as f64
        }
    }
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

/// The stderr progress line of one boundary, tagged with `label`.
pub fn progress_line(label: &str, ev: &ProgressEvent) -> String {
    let mut s = format!(
        "[{label}] {}/{} runs  ssf={:.5}  s2={:.3e}  ess={:.0}",
        ev.runs_done, ev.total_runs, ev.ssf, ev.sample_variance, ev.ess
    );
    if let Some(b) = ev.lln_bound {
        let _ = write!(s, "  lln={b:.3e}");
    }
    if ev.counters.conclusion_memo_hits + ev.counters.conclusion_memo_misses > 0 {
        let _ = write!(
            s,
            "  memo={:.0}%",
            ev.counters.conclusion_hit_rate() * 100.0
        );
    }
    if ev.kernel_counters.lane_batches > 0 {
        let _ = write!(s, "  occ={:.1}", ev.kernel_counters.mean_lane_occupancy());
    }
    if let Some(m) = ev.mlmc {
        let _ = write!(s, "  lvl=L{}  share1={:.1}%", m.level, 100.0 * m.share1());
    }
    if ev.chunk_wall.count > 0 {
        let _ = write!(
            s,
            "  chunk p50={:.1}ms p99={:.1}ms",
            1e3 * ev.chunk_wall.p50_s,
            1e3 * ev.chunk_wall.p99_s
        );
    }
    let _ = write!(s, "  {:.0} runs/s", ev.runs_per_sec);
    s
}

/// A rate-limited progress printer for long campaigns (adopted by the
/// bench and figure binaries): one [`progress_line`] at most every
/// `min_interval`, and the last boundary when the campaign finishes, stops
/// early or aborts, if that boundary was not printed yet.
#[derive(Debug)]
pub struct StderrProgress<W: Write = io::Stderr> {
    label: String,
    min_interval: Duration,
    last_print: Option<Instant>,
    /// The last boundary, while it is not printed.
    unprinted: Option<ProgressEvent>,
    out: W,
}

impl StderrProgress {
    /// A printer tagged with `label`, printing at most every 2 seconds.
    pub fn new(label: impl Into<String>) -> Self {
        Self::with_interval(label, Duration::from_secs(2))
    }

    /// A printer with an explicit minimum interval between lines.
    pub fn with_interval(label: impl Into<String>, min_interval: Duration) -> Self {
        Self::with_writer(label, min_interval, io::stderr())
    }
}

impl<W: Write> StderrProgress<W> {
    /// A printer that writes its lines to `out` instead of stderr.
    pub fn with_writer(label: impl Into<String>, min_interval: Duration, out: W) -> Self {
        Self {
            label: label.into(),
            min_interval,
            last_print: None,
            unprinted: None,
            out,
        }
    }

    fn print(&mut self, ev: &ProgressEvent) {
        let _ = writeln!(self.out, "{}", progress_line(&self.label, ev));
    }
}

impl<W: Write> CampaignObserver for StderrProgress<W> {
    fn on_progress(&mut self, ev: &ProgressEvent) -> ObserverAction {
        if self
            .last_print
            .is_none_or(|t| t.elapsed() >= self.min_interval)
        {
            self.last_print = Some(Instant::now());
            self.unprinted = None;
            self.print(ev);
        } else {
            self.unprinted = Some(ev.clone());
        }
        ObserverAction::Continue
    }

    fn on_finish(&mut self, _result: &CampaignResult) {
        if let Some(ev) = self.unprinted.take() {
            self.print(&ev);
        }
    }
}

// ---------------------------------------------------------------------------
// Log-bucketed latency histograms
// ---------------------------------------------------------------------------

/// Sub-buckets per power of two — a ~19% relative error bound on any
/// reported quantile, HDR-histogram style.
const OCTAVE_SUB: usize = 4;

/// The resolution floor: observations at or below 1 ns land in bucket 0.
const MIN_SECONDS: f64 = 1e-9;

/// 38 octaves above 1 ns ≈ 275 s — longer observations saturate into the
/// last bucket (their exact value is still preserved in `max`/`sum`).
const BUCKETS: usize = 38 * OCTAVE_SUB;

/// A log-bucketed (HDR-style) histogram of latencies in seconds.
///
/// Fixed bucket layout — ~19% worst-case quantile error over 1 ns…275 s —
/// with exact `count`, `sum` and `max` kept alongside, so rates and means
/// are exact and only quantiles are bucket-quantized. The bucket vector
/// allocates lazily: an empty histogram (the common case inside every
/// chunk partial) costs nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl LatencyHist {
    /// The bucket index for an observation of `v` seconds.
    fn bucket_of(v: f64) -> usize {
        if v <= MIN_SECONDS {
            return 0;
        }
        let octaves = (v / MIN_SECONDS).log2() * OCTAVE_SUB as f64;
        (octaves.floor() as usize).min(BUCKETS - 1)
    }

    /// The inclusive upper bound of bucket `i`, in seconds.
    fn bucket_upper(i: usize) -> f64 {
        MIN_SECONDS * 2f64.powf((i + 1) as f64 / OCTAVE_SUB as f64)
    }

    /// Record one observation (non-finite and negative values are
    /// clamped to the resolution floor rather than dropped, so `count`
    /// always matches the number of events).
    pub fn record(&mut self, seconds: f64) {
        let v = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        if other.count == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, in seconds.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest observation, in seconds (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the upper bound of the bucket
    /// holding the `⌈q·count⌉`-th observation, clamped to `max`. Returns
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                // The last bucket saturates (no useful upper bound);
                // report the exact max instead.
                return if i == BUCKETS - 1 {
                    self.max
                } else {
                    Self::bucket_upper(i).min(self.max)
                };
            }
        }
        self.max
    }

    /// The fixed `(count, p50, p90, p99, max, sum)` digest.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50_s: self.quantile(0.50),
            p90_s: self.quantile(0.90),
            p99_s: self.quantile(0.99),
            max_s: self.max,
            sum_s: self.sum,
        }
    }
}

/// A compact quantile digest of one [`LatencyHist`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: u64,
    /// Median (bucket upper bound), seconds.
    pub p50_s: f64,
    /// 90th percentile, seconds.
    pub p90_s: f64,
    /// 99th percentile, seconds.
    pub p99_s: f64,
    /// Exact largest observation, seconds.
    pub max_s: f64,
    /// Exact sum of observations, seconds.
    pub sum_s: f64,
}

/// The five latency distributions the campaign engine tracks, and the
/// single estimator's phase times.
///
/// One shard lives in every chunk partial (filled worker-side), and one
/// in the merger's [`TelemetrySink`]; shards are folded at chunk
/// boundaries, in chunk order, like every other partial field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyShard {
    /// Wall time of one whole chunk (draw + strike + conclude).
    pub chunk_wall: LatencyHist,
    /// Time the merging thread blocked waiting for the next partial
    /// (recorded merger-side; empty on the single-thread path where the
    /// merger is the worker).
    pub merge_wait: LatencyHist,
    /// RTL resume positioning: snapshot-cache restore on a hit, or
    /// checkpoint restore + replay on a miss.
    pub snapshot_restore: LatencyHist,
    /// One packed transient sweep of the compiled kernel (empty
    /// under `--kernel scalar`, which strikes per run).
    pub kernel_sweep: LatencyHist,
    /// One crash-safe checkpoint write (temp file + rename).
    pub checkpoint_write: LatencyHist,
    /// Seconds the single estimator's chunks spent in each phase (zero
    /// under MLMC; the scalar kernel has no lane or sweep phase).
    pub phases: PhaseTimes,
}

impl LatencyShard {
    /// Fold another shard into this one.
    pub fn absorb(&mut self, other: &LatencyShard) {
        self.chunk_wall.merge(&other.chunk_wall);
        self.merge_wait.merge(&other.merge_wait);
        self.snapshot_restore.merge(&other.snapshot_restore);
        self.kernel_sweep.merge(&other.kernel_sweep);
        self.checkpoint_write.merge(&other.checkpoint_write);
        self.phases.add(&other.phases);
    }

    /// The histograms with their stable metric names.
    pub fn iter_named(&self) -> [(&'static str, &LatencyHist); 5] {
        [
            ("chunk_wall", &self.chunk_wall),
            ("merge_wait", &self.merge_wait),
            ("snapshot_restore", &self.snapshot_restore),
            ("kernel_sweep", &self.kernel_sweep),
            ("checkpoint_write", &self.checkpoint_write),
        ]
    }
}

/// Wall time a chunk of the single estimator spends in each of its
/// phases, summed over chunks: where a campaign's time goes, without a
/// trace. Each phase is timed from its start to the next one's, so the
/// five add up to at most the chunks' wall time. The scalar kernel strikes
/// and concludes run by run: it times both as `conclude_s` and leaves
/// `lanes_s` and `sweep_s` at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Drawing and stratifying the chunk's samples.
    pub draw_s: f64,
    /// Filling sweeps: lane build, strike-memo lookups and recalls.
    pub lanes_s: f64,
    /// The packed kernel sweeps.
    pub sweep_s: f64,
    /// Hardening and concluding the swept lanes (and the recalled runs
    /// that still need it); under the scalar kernel, every run's strike
    /// and conclusion.
    pub conclude_s: f64,
    /// Folding the chunk's records in run order.
    pub fold_s: f64,
}

impl PhaseTimes {
    /// Add another chunk's times.
    pub fn add(&mut self, other: &PhaseTimes) {
        self.draw_s += other.draw_s;
        self.lanes_s += other.lanes_s;
        self.sweep_s += other.sweep_s;
        self.conclude_s += other.conclude_s;
        self.fold_s += other.fold_s;
    }

    /// The sums with their stable metric names.
    pub fn iter_named(&self) -> [(&'static str, f64); 5] {
        [
            ("draw_s", self.draw_s),
            ("lanes_s", self.lanes_s),
            ("sweep_s", self.sweep_s),
            ("conclude_s", self.conclude_s),
            ("fold_s", self.fold_s),
        ]
    }

    /// The five sums added up.
    pub fn total_s(&self) -> f64 {
        self.iter_named().iter().map(|&(_, s)| s).sum()
    }
}

// ---------------------------------------------------------------------------
// The sink: last record, merged latency, campaign counts, live surfaces
// ---------------------------------------------------------------------------

/// Least wall time between two cadence-boundary rewrites of the `--prom`
/// exposition. A rewrite (temp file + rename) costs ~0.2 ms on a 2-CPU
/// Xeon host: at every checkpoint-cadence boundary that was ~17% of a warm
/// compiled campaign, while a textfile scraper polls every few seconds.
const PROM_MIN_INTERVAL: Duration = Duration::from_secs(1);

/// One merged chunk boundary as the sink keeps it: the observers'
/// [`ProgressEvent`] and what the chunk that closed it adds.
#[derive(Debug, Clone)]
pub(crate) struct Boundary {
    /// The record the observers see.
    pub event: ProgressEvent,
    /// The chunk just merged (`chunk + 1` chunks are merged).
    pub chunk: usize,
    /// Its MLMC level (1, the gate level, under the single estimator).
    pub level: u8,
    /// Its own Welford triple, which the `chunk_merged` line carries as
    /// bits so the estimate rebuilds from the log alone.
    pub stats: RunningStats,
    /// Successful runs merged so far.
    pub successes: usize,
    /// The frozen MLMC plan ratio, once the pilot is merged.
    pub plan_ratio: Option<f64>,
}

/// An append-only JSONL lifecycle log (`--events PATH`).
///
/// One JSON object per line, written whole and flushed per line, so a
/// killed campaign leaves every completed line readable — crash safety
/// by construction rather than by recovery. Write errors are reported to
/// stderr once and then swallowed: a full disk must not take down the
/// campaign (pure-observer rule).
#[derive(Debug)]
struct EventLog {
    out: io::BufWriter<std::fs::File>,
    path: PathBuf,
    seq: u64,
    failed: bool,
}

impl EventLog {
    /// Create (truncating) the log at `path`.
    fn create(path: &Path) -> io::Result<Self> {
        Ok(Self {
            out: io::BufWriter::new(std::fs::File::create(path)?),
            path: path.to_owned(),
            seq: 0,
            failed: false,
        })
    }

    /// Append one event line; `fields` renders the event's own members,
    /// each led by `", "`.
    fn emit(&mut self, event: &str, elapsed_s: f64, fields: fmt::Arguments<'_>) {
        let line = format!(
            "{{\"event\": \"{event}\", \"seq\": {}, \"elapsed_s\": {}{fields}}}\n",
            self.seq,
            json_num(elapsed_s),
        );
        self.seq += 1;
        let r = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.flush());
        if let Err(e) = r {
            if !self.failed {
                eprintln!("warning: events log {}: {e}", self.path.display());
                self.failed = true;
            }
        }
    }
}

/// Detects a campaign that stopped merging chunks: if no progress is
/// noted within the wall-time budget, [`check`](Self::check) reports the
/// stall once (re-armed by the next progress).
///
/// The clock is injected — every method takes `now: Instant` — so tests
/// drive synthetic time with `Instant` arithmetic instead of sleeping.
#[derive(Debug)]
pub struct StallWatchdog {
    budget: Duration,
    last_progress: Instant,
    tripped: bool,
}

impl StallWatchdog {
    /// A watchdog armed at `now` with the given budget.
    pub fn new(budget: Duration, now: Instant) -> Self {
        Self {
            budget,
            last_progress: now,
            tripped: false,
        }
    }

    /// A chunk was merged: reset the timer and re-arm.
    pub fn note_progress(&mut self, now: Instant) {
        self.last_progress = now;
        self.tripped = false;
    }

    /// Returns `Some(stalled_for)` the first time the budget is exceeded
    /// since the last progress; `None` otherwise (including while already
    /// tripped, so one stall emits one event).
    pub fn check(&mut self, now: Instant) -> Option<Duration> {
        if self.tripped {
            return None;
        }
        let waited = now.saturating_duration_since(self.last_progress);
        if waited >= self.budget {
            self.tripped = true;
            Some(waited)
        } else {
            None
        }
    }
}

/// The merger's telemetry: the last [`Boundary`], the merged latency
/// shard and the campaign-level counts, with the live surfaces that render
/// them (`--events`, `--prom`, the stall watchdog). The driver calls it at
/// every lifecycle point — started, chunk merged, early stop, checkpoint,
/// stall, replay verified, finished — after the fold, so no surface can
/// change a result bit.
pub(crate) struct TelemetrySink {
    start: Instant,
    events: Option<EventLog>,
    prom_path: Option<PathBuf>,
    /// The rendered `k="v",...` campaign labels of every prom sample.
    prom_labels: String,
    /// When the exposition was last rewritten.
    prom_written: Option<Instant>,
    /// The watchdog and its budget as configured, in seconds.
    watchdog: Option<(StallWatchdog, f64)>,
    plan_emitted: bool,
    /// The merged latency distributions and phase times.
    pub latency: LatencyShard,
    last: Option<Boundary>,
    checkpoints: u64,
    stalls: u64,
    workers: Option<usize>,
}

impl TelemetrySink {
    /// Open the surfaces `options` asks for and log `campaign_started`.
    /// `plan_frozen` says a resumed MLMC campaign already froze its plan.
    pub fn start(
        options: &CampaignOptions,
        strategy: &str,
        seed: u64,
        requested_runs: usize,
        resumed_runs: usize,
        plan_frozen: bool,
        start: Instant,
    ) -> Result<Self, CampaignError> {
        let events = match options.events_path.as_deref() {
            Some(p) => {
                Some(EventLog::create(p).map_err(|e| CampaignError::artifact("events", p, &e))?)
            }
            None => None,
        };
        let prom_labels = [
            ("strategy", strategy),
            ("kernel", options.kernel.as_arg()),
            ("estimator", options.estimator.as_arg()),
        ]
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_label_escape(v)))
        .collect::<Vec<_>>()
        .join(",");
        let mut sink = Self {
            start,
            events,
            prom_path: options.prom_path.clone(),
            prom_labels,
            prom_written: None,
            watchdog: None,
            plan_emitted: plan_frozen,
            latency: LatencyShard::default(),
            last: None,
            checkpoints: 0,
            stalls: 0,
            workers: None,
        };
        if let Some(log) = sink.events.as_mut() {
            log.emit(
                "campaign_started",
                0.0,
                format_args!(
                    ", \"seed\": {seed}, \"requested_runs\": {requested_runs}, \
                     \"kernel\": \"{}\", \"estimator\": \"{}\", \"threads\": {}, \
                     \"resumed_runs\": {resumed_runs}",
                    options.kernel.as_arg(),
                    options.estimator.as_arg(),
                    options.effective_threads(),
                ),
            );
        }
        Ok(sink)
    }

    /// Keep the boundary just merged as the last record: log
    /// `chunk_merged` (and `plan_frozen` once the MLMC plan is frozen),
    /// re-arm the watchdog, and return the record for the observer.
    pub fn merged(&mut self, b: Boundary) -> &ProgressEvent {
        if let Some(log) = self.events.as_mut() {
            let (count, mean, m2) = b.stats.to_raw();
            let elapsed_s = b.event.elapsed_s;
            log.emit(
                "chunk_merged",
                elapsed_s,
                format_args!(
                    ", \"chunk\": {}, \"level\": {}, \"runs_done\": {}, \"count\": {count}, \
                     \"mean_bits\": {}, \"m2_bits\": {}, \"ssf_bits\": {}",
                    b.chunk,
                    b.level,
                    b.event.runs_done,
                    bits_str(mean),
                    bits_str(m2),
                    bits_str(b.event.ssf),
                ),
            );
            if let Some(ratio) = b.plan_ratio.filter(|_| !self.plan_emitted) {
                self.plan_emitted = true;
                log.emit(
                    "plan_frozen",
                    elapsed_s,
                    format_args!(
                        ", \"chunk\": {}, \"ratio\": {}",
                        b.chunk + 1,
                        json_num(ratio)
                    ),
                );
            }
        }
        if let Some((wd, _)) = self.watchdog.as_mut() {
            wd.note_progress(Instant::now());
        }
        &self.last.insert(b).event
    }

    /// Log `early_stop` at the last boundary.
    pub fn early_stop(&mut self) {
        let (Some(log), Some(b)) = (self.events.as_mut(), &self.last) else {
            return;
        };
        let ev = &b.event;
        let (Some(bound), Some(eps)) = (ev.lln_bound, ev.target_eps) else {
            return;
        };
        log.emit(
            "early_stop",
            ev.elapsed_s,
            format_args!(
                ", \"runs_done\": {}, \"lln_bound\": {}, \"target_eps\": {}",
                ev.runs_done,
                json_num(bound),
                json_num(eps),
            ),
        );
    }

    /// Count a checkpoint written at the last boundary in `write_s`
    /// seconds, and log `checkpoint_written`.
    pub fn checkpoint_written(&mut self, write_s: f64) {
        self.latency.checkpoint_write.record(write_s);
        self.checkpoints += 1;
        let elapsed_s = self.elapsed_s();
        let (Some(log), Some(b)) = (self.events.as_mut(), &self.last) else {
            return;
        };
        log.emit(
            "checkpoint_written",
            elapsed_s,
            format_args!(
                ", \"runs_done\": {}, \"merged_chunks\": {}",
                b.event.runs_done,
                b.chunk + 1
            ),
        );
    }

    /// The checkpoint-cadence durability point: events pushed to the OS,
    /// the exposition rewritten (at most once per [`PROM_MIN_INTERVAL`]).
    pub fn cadence(&mut self) -> Result<(), CampaignError> {
        self.flush_events();
        if self
            .prom_written
            .is_none_or(|t| t.elapsed() >= PROM_MIN_INTERVAL)
        {
            self.write_prom()?;
        }
        Ok(())
    }

    /// Arm the stall watchdog with a budget of `timeout_s` seconds, when
    /// the event log is on (the stall report is an event) and the budget
    /// is positive.
    pub fn arm_watchdog(&mut self, timeout_s: f64) {
        if self.events.is_some() && timeout_s > 0.0 {
            let wd = StallWatchdog::new(Duration::from_secs_f64(timeout_s), Instant::now());
            self.watchdog = Some((wd, timeout_s));
        }
    }

    /// How long the merge loop may wait for a partial before
    /// [`check_stall`](Self::check_stall) (`Duration::MAX` unarmed).
    pub fn stall_budget(&self) -> Duration {
        self.watchdog
            .as_ref()
            .map_or(Duration::MAX, |(wd, _)| wd.budget)
    }

    /// After a wait of [`stall_budget`](Self::stall_budget): report a
    /// stall once — count it and log `worker_stalled` with the merge
    /// cursor and the chunk each worker holds.
    pub fn check_stall(
        &mut self,
        merge_cursor: usize,
        worker_chunks: impl Iterator<Item = Option<usize>>,
    ) {
        let Some((wd, budget_s)) = self.watchdog.as_mut() else {
            return;
        };
        let Some(stalled_for) = wd.check(Instant::now()) else {
            return;
        };
        let elapsed_s = self.start.elapsed().as_secs_f64();
        self.stalls += 1;
        let chunks: Vec<String> = worker_chunks
            .map(|c| c.map_or("null".to_owned(), |c| c.to_string()))
            .collect();
        if let Some(log) = self.events.as_mut() {
            log.emit(
                "worker_stalled",
                elapsed_s,
                format_args!(
                    ", \"stalled_for_s\": {}, \"budget_s\": {}, \"merge_cursor\": {merge_cursor}, \
                     \"worker_chunks\": [{}]",
                    json_num(stalled_for.as_secs_f64()),
                    json_num(*budget_s),
                    chunks.join(", "),
                ),
            );
        }
        self.flush_events();
    }

    /// Log `replay_verified` for run `run`, replayed at `level`.
    pub fn replay_verified(&mut self, run: u64, level: u8) {
        let elapsed_s = self.elapsed_s();
        if let Some(log) = self.events.as_mut() {
            log.emit(
                "replay_verified",
                elapsed_s,
                format_args!(", \"run\": {run}, \"level\": {level}"),
            );
        }
    }

    /// Close the campaign: log `campaign_finished`, write the final
    /// exposition (with the `workers` gauge) and the metrics file.
    pub fn finish(
        &mut self,
        result: &CampaignResult,
        meta: &MetricsMeta,
        metrics_path: Option<&Path>,
    ) -> Result<(), CampaignError> {
        self.workers = Some(meta.scheduler.workers);
        let elapsed_s = self.elapsed_s();
        if let Some(log) = self.events.as_mut() {
            log.emit(
                "campaign_finished",
                elapsed_s,
                format_args!(
                    ", \"stop_reason\": \"{}\", \"n\": {}, \"ssf_bits\": {}, \"successes\": {}",
                    result.stop.as_str(),
                    result.n,
                    bits_str(result.ssf),
                    result.successes,
                ),
            );
        }
        self.flush_events();
        self.write_prom()?;
        if let Some(path) = metrics_path {
            write_atomic(path, &metrics_json(result, meta))
                .map_err(|e| CampaignError::artifact("metrics", path, &e))?;
        }
        Ok(())
    }

    /// Wall-clock seconds since the campaign invocation started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn flush_events(&mut self) {
        if let Some(log) = self.events.as_mut() {
            let _ = log.out.flush();
        }
    }

    /// Rewrite the Prometheus exposition (no-op without `--prom`).
    fn write_prom(&mut self) -> Result<(), CampaignError> {
        if let Some(path) = &self.prom_path {
            write_atomic(path, &self.prom_text())
                .map_err(|e| CampaignError::artifact("prom", path, &e))?;
            self.prom_written = Some(Instant::now());
        }
        Ok(())
    }

    /// The Prometheus text exposition (version 0.0.4) of the last record
    /// and the campaign counts: counters, then gauges, each family once
    /// it has a value, in name order; then each latency histogram as a
    /// `summary` with `quantile` labels plus `_sum`/`_count`. All metric
    /// names carry the `xlmc_` prefix and every sample the campaign labels.
    fn prom_text(&self) -> String {
        let labels = &self.prom_labels;
        let base = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let mut s = String::with_capacity(2048);
        let mut sample = |kind: &str, name: &str, value: &dyn fmt::Display| {
            let _ = writeln!(s, "# TYPE xlmc_{name} {kind}");
            let _ = writeln!(s, "xlmc_{name}{base} {value}");
        };
        let last = self.last.as_ref();
        if self.checkpoints > 0 {
            sample("counter", "checkpoints_written_total", &self.checkpoints);
        }
        if let Some(b) = last {
            sample("counter", "chunks_merged_total", &(b.chunk + 1));
            sample("counter", "runs_total", &b.event.runs_done);
        }
        if self.stalls > 0 {
            sample("counter", "stalls_total", &self.stalls);
        }
        if let Some(b) = last {
            let ev = &b.event;
            sample("counter", "successes_total", &b.successes);
            sample("gauge", "elapsed_seconds", &prom_num(ev.elapsed_s));
            sample("gauge", "ess", &prom_num(ev.ess));
            if let Some(bound) = ev.lln_bound {
                sample("gauge", "lln_bound", &prom_num(bound));
            }
            sample("gauge", "runs_per_sec", &prom_num(ev.runs_per_sec));
            sample("gauge", "sample_variance", &prom_num(ev.sample_variance));
            sample("gauge", "ssf", &prom_num(ev.ssf));
        }
        if let Some(w) = self.workers {
            sample("gauge", "workers", &prom_num(w as f64));
        }
        let sep = if labels.is_empty() { "" } else { "," };
        for (name, hist) in self.latency.iter_named() {
            let _ = writeln!(s, "# TYPE xlmc_{name}_seconds summary");
            for q in [0.5, 0.9, 0.99] {
                let _ = writeln!(
                    s,
                    "xlmc_{name}_seconds{{{labels}{sep}quantile=\"{q}\"}} {}",
                    prom_num(hist.quantile(q))
                );
            }
            let _ = writeln!(s, "xlmc_{name}_seconds_sum{base} {}", prom_num(hist.sum()));
            let _ = writeln!(s, "xlmc_{name}_seconds_count{base} {}", hist.count());
        }
        s
    }
}

/// Escape a Prometheus label value (`\`, `"`, newline).
fn prom_label_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Format a metric value: integers without a fraction, floats via the
/// shortest-roundtrip form (Prometheus accepts both).
fn prom_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else if x.is_nan() {
        "NaN".to_owned()
    } else if x > 0.0 {
        "+Inf".to_owned()
    } else {
        "-Inf".to_owned()
    }
}

/// Write `text` crash-safely: a temp file in the same directory, then an
/// atomic rename over the target, so a reader never sees half a file.
fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// The finished campaign: metrics JSON and the summary lines
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
#[derive(Debug, Clone)]
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
    /// The engine latency histograms (chunk wall, merge wait, snapshot
    /// restore, kernel sweep, checkpoint write) and phase times, merged.
    pub latency: LatencyShard,
}

/// Render the finished campaign as the metrics JSON document.
pub fn metrics_json(result: &CampaignResult, meta: &MetricsMeta) -> String {
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
    let hists = meta.latency.iter_named();
    for (i, (name, h)) in hists.iter().enumerate() {
        let d = h.summary();
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
            if i + 1 < hists.len() { "," } else { "" },
        );
    }
    s.push_str("  }, \"phases\": {");
    for (i, (name, sum)) in meta.latency.phases.iter_named().iter().enumerate() {
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

/// The `[resume]`, `[kernel]` and `[scheduler]` lines `--trace` prints
/// after the span table: the schedule-dependent totals of the finished
/// campaign, one line each.
pub fn summary_lines(result: &CampaignResult, meta: &MetricsMeta) -> String {
    let (ff, p, sc, k) = (
        &meta.resume_stats,
        &meta.program,
        &meta.scheduler,
        &result.kernel_counters,
    );
    format!(
        "[resume] resumes {} | MPU-resolved {} | MPU steps {} | idle skipped {} | \
         snapshot hits {} / misses {} (hit rate {:.1}%) | evictions {}\n\
         [kernel] {}: {} levels x {} gates, {} lanes/sweep, {} sweeps | \
         lanes {} | strike-memo hits {} (handle recalls {}) | timed lanes {} | \
         re-simulated lanes {}\n\
         [scheduler] {} workers | merge wait {:.3}s | reorder peak {} | \
         memo hits {} / misses {} | discarded runs {}\n",
        ff.rtl_resumes,
        ff.module_resolved,
        ff.mpu_steps,
        ff.idle_skipped,
        ff.checkpoint_cache_hits,
        ff.checkpoint_cache_misses,
        100.0 * ff.checkpoint_hit_rate(),
        ff.checkpoint_cache_evictions,
        meta.kernel.as_arg(),
        p.levels,
        p.gates,
        p.lane_width,
        p.sweeps,
        k.lanes_occupied,
        sc.strike_memo_hits,
        sc.handle_recalls,
        k.timed_lanes,
        k.resimulated_lanes,
        sc.workers,
        sc.merge_wait_s,
        sc.reorder_peak,
        sc.memo_hits,
        sc.memo_misses,
        sc.discarded_runs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EstimatorKind, StopReason};
    use crate::json::JsonValue;
    use std::collections::BTreeMap;

    /// A mid-campaign boundary record.
    fn event() -> ProgressEvent {
        ProgressEvent {
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
        }
    }

    /// A sink writing only the exposition at `path`, for `strategy`.
    fn prom_sink(path: &Path, strategy: &str) -> TelemetrySink {
        let options = CampaignOptions {
            prom_path: Some(path.to_owned()),
            ..CampaignOptions::default()
        };
        TelemetrySink::start(&options, strategy, 1, 1024, 0, false, Instant::now()).unwrap()
    }

    fn boundary(chunk: usize, runs_done: usize, successes: usize) -> Boundary {
        Boundary {
            event: ProgressEvent {
                runs_done,
                ssf: 0.017,
                ..event()
            },
            chunk,
            level: 1,
            stats: RunningStats::new(),
            successes,
            plan_ratio: None,
        }
    }

    #[test]
    fn histogram_quantiles_bound_observations() {
        let mut h = LatencyHist::default();
        for i in 1..=100u32 {
            h.record(i as f64 * 1e-3); // 1ms..100ms
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Bucket upper bounds over-estimate by at most 2^(1/4).
        let slack = 2f64.powf(1.0 / OCTAVE_SUB as f64);
        assert!(p50 >= 0.050 && p50 <= 0.050 * slack, "p50={p50}");
        assert!(p99 >= 0.099 && p99 <= 0.099 * slack, "p99={p99}");
        assert!(h.quantile(1.0) <= h.max());
        assert!(p50 <= h.quantile(0.9) && h.quantile(0.9) <= p99);
        assert!((h.sum() - 5.050).abs() < 1e-9);
        assert_eq!(h.max(), 0.1);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let values_a = [1e-6, 5e-4, 0.25, 3.0];
        let values_b = [2e-9, 0.125, 7.5];
        let mut a = LatencyHist::default();
        let mut b = LatencyHist::default();
        let mut combined = LatencyHist::default();
        for &v in &values_a {
            a.record(v);
            combined.record(v);
        }
        for &v in &values_b {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        // Merging into an empty histogram is a copy.
        let mut empty = LatencyHist::default();
        empty.merge(&combined);
        assert_eq!(empty, combined);
    }

    #[test]
    fn histogram_handles_degenerate_observations() {
        let mut h = LatencyHist::default();
        h.record(0.0);
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(1e9); // beyond the top bucket
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 1e9);
        assert!(h.quantile(0.25) <= MIN_SECONDS * 2.0);
        // The saturated tail still reports, clamped to the exact max.
        assert_eq!(h.quantile(1.0), h.max());
        let empty = LatencyHist::default();
        assert_eq!(empty.summary(), LatencySummary::default());
    }

    #[test]
    fn shard_absorb_folds_all_five() {
        let mut a = LatencyShard::default();
        let mut b = LatencyShard::default();
        b.chunk_wall.record(0.5);
        b.snapshot_restore.record(1e-4);
        b.kernel_sweep.record(2e-5);
        b.phases.sweep_s = 2e-5;
        b.phases.fold_s = 0.25;
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.phases.sweep_s, 4e-5);
        assert!((a.phases.total_s() - 0.50004).abs() < 1e-12);
        assert_eq!(a.chunk_wall.count(), 2);
        assert_eq!(a.snapshot_restore.count(), 2);
        assert_eq!(a.kernel_sweep.count(), 2);
        assert_eq!(a.merge_wait.count(), 0);
        assert_eq!(a.chunk_wall.summary().count, 2);
        assert_eq!(a.checkpoint_write.summary(), LatencySummary::default());
    }

    #[test]
    fn prom_render_is_well_formed() {
        let path = std::env::temp_dir().join(format!("xlmc_prom_wf_{}.txt", std::process::id()));
        let mut sink = prom_sink(&path, "weird\"name\\");
        assert!(
            !sink.prom_text().contains("xlmc_runs_total"),
            "no record yet"
        );
        sink.latency.chunk_wall.record(0.25);
        sink.merged(boundary(3, 2048, 35));
        let text = sink.prom_text();
        assert!(text.contains("# TYPE xlmc_runs_total counter"));
        assert!(text.contains(
            "xlmc_runs_total{strategy=\"weird\\\"name\\\\\",kernel=\"compiled\",\
             estimator=\"single\"} 2048"
        ));
        assert!(text.contains("xlmc_chunks_merged_total{strategy"));
        assert!(text.contains("# TYPE xlmc_ssf gauge"));
        assert!(!text.contains("xlmc_lln_bound"), "no target eps");
        assert!(!text.contains("xlmc_checkpoints_written_total"));
        assert!(text.contains("# TYPE xlmc_chunk_wall_seconds summary"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("xlmc_chunk_wall_seconds_count{strategy"));
        assert!(text.contains("xlmc_merge_wait_seconds_count{strategy"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name_part, value) = line.rsplit_once(' ').expect("prom line has a value");
            assert!(name_part.starts_with("xlmc_"), "bad line: {line}");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "bad value in: {line}"
            );
        }
        // Families in the order counters, gauges, summaries, each by name.
        let families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE xlmc_"))
            .collect();
        assert_eq!(
            families[..9],
            [
                "chunks_merged_total counter",
                "runs_total counter",
                "successes_total counter",
                "elapsed_seconds gauge",
                "ess gauge",
                "runs_per_sec gauge",
                "sample_variance gauge",
                "ssf gauge",
                "chunk_wall_seconds summary",
            ]
        );
    }

    #[test]
    fn prom_write_is_atomic_and_parseable() {
        let path = std::env::temp_dir().join(format!("xlmc_prom_{}.txt", std::process::id()));
        let mut sink = prom_sink(&path, "random");
        sink.merged(boundary(6, 3584, 40));
        sink.checkpoint_written(1e-4);
        sink.cadence().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("xlmc_chunks_merged_total{strategy=\"random\",kernel=\"compiled\",estimator=\"single\"} 7"));
        assert!(text.contains("xlmc_checkpoints_written_total{"));
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file left behind"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn event_log_writes_valid_jsonl_with_monotonic_seq() {
        let path = std::env::temp_dir().join(format!("xlmc_events_{}.jsonl", std::process::id()));
        {
            let mut log = EventLog::create(&path).unwrap();
            log.emit("campaign_started", 0.0, format_args!(", \"seed\": 42"));
            log.emit(
                "chunk_merged",
                0.5,
                format_args!(", \"chunk\": 0, \"runs_done\": 512"),
            );
            log.emit("campaign_finished", 1.0, format_args!(""));
            assert_eq!(log.seq, 3);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let doc = JsonValue::parse(line).unwrap();
            assert_eq!(doc.get("seq").and_then(JsonValue::as_u64), Some(i as u64));
            assert!(doc.get("event").and_then(JsonValue::as_str).is_some());
            assert!(doc.get("elapsed_s").and_then(JsonValue::as_f64).is_some());
        }
        assert_eq!(
            JsonValue::parse(lines[0])
                .unwrap()
                .get("seed")
                .and_then(JsonValue::as_u64),
            Some(42)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn watchdog_fires_once_per_stall_with_injected_clock() {
        let base = Instant::now();
        let s = Duration::from_secs;
        let mut dog = StallWatchdog::new(s(30), base);
        assert_eq!(dog.check(base + s(10)), None);
        assert_eq!(dog.check(base + s(29)), None);
        // Budget exceeded: fires exactly once.
        assert_eq!(dog.check(base + s(31)), Some(s(31)));
        assert_eq!(dog.check(base + s(60)), None, "already tripped");
        // Progress re-arms it.
        dog.note_progress(base + s(62));
        assert_eq!(dog.check(base + s(80)), None);
        assert_eq!(dog.check(base + s(92)), Some(s(30)));
        assert_eq!(dog.check(base + s(93)), None);
    }

    #[test]
    fn mlmc_progress_share() {
        let p = MlmcProgress {
            level: 1,
            n0: 3000,
            n1: 1000,
        };
        assert_eq!(p.share1(), 0.25);
        let empty = MlmcProgress {
            level: 0,
            n0: 0,
            n1: 0,
        };
        assert_eq!(empty.share1(), 0.0);
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
                let mut shard = LatencyShard::default();
                shard.chunk_wall.record(0.012);
                shard.chunk_wall.record(0.034);
                shard.checkpoint_write.record(0.002);
                shard.phases = PhaseTimes {
                    draw_s: 0.01,
                    lanes_s: 0.005,
                    sweep_s: 0.004,
                    conclude_s: 0.02,
                    fold_s: 0.003,
                };
                shard
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
    fn stderr_progress_continues() {
        let mut p = StderrProgress::with_interval("test", Duration::from_secs(3600));
        let ev = event();
        assert_eq!(p.on_progress(&ev), ObserverAction::Continue);
        // Second call inside the interval is rate-limited but still
        // continues (and the last boundary prints when the campaign ends).
        assert_eq!(p.on_progress(&ev), ObserverAction::Continue);
    }
}
