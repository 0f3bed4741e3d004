//! The live telemetry bus: a metrics registry of counters, gauges and
//! log-bucketed latency histograms, a streaming JSONL event log, a
//! Prometheus-text exposition snapshot, and a stall watchdog.
//!
//! Everything here is a **pure observer** of the campaign engine. Latency
//! observations are wall-clock and therefore vary run to run, but they
//! ride the same deterministic path as the statistics: each worker
//! records into a per-chunk [`LatencyShard`] that travels inside the
//! chunk partial, and the merging thread folds shards **in chunk order**
//! into the [`MetricsRegistry`]. No telemetry value ever feeds back into
//! a sample, a weight, or a stopping decision, so campaign results are
//! bit-identical with every surface on or off
//! (`tests/campaign_telemetry.rs` enforces this across kernels × threads
//! × estimators).
//!
//! Surfaces, all driven by the one registry:
//!
//! * `--events PATH` — append-only JSONL lifecycle log
//!   ([`EventLog`], `schemas/events.schema.json`), flushed per line so a
//!   killed campaign leaves a readable record.
//! * `--prom PATH` — a Prometheus text-format snapshot
//!   ([`prom_render`]), rewritten atomically (temp + rename) at
//!   checkpoint cadence boundaries at most once a second and at campaign
//!   end, for scraping by a node-exporter-style textfile collector.
//! * The metrics JSON `timing` object and the stderr progress line fold
//!   in p50/p90/p99 of the tracked latency distributions.
//!
//! The stall watchdog ([`StallWatchdog`]) takes its clock as an argument
//! (`Instant` values), so tests can drive it with synthetic time — no
//! real sleeps in CI.

use crate::json::json_escape;
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

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
/// [`ChunkPartial`](crate::estimator::ChunkPartial)) costs nothing.
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

/// The five latency distributions the campaign engine tracks.
///
/// One shard lives in every chunk partial (filled worker-side), and one
/// lives in the merger's [`MetricsRegistry`]; shards are folded at chunk
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

    /// Digest every histogram.
    pub fn summaries(&self) -> LatencySummaries {
        LatencySummaries {
            chunk_wall: self.chunk_wall.summary(),
            merge_wait: self.merge_wait.summary(),
            snapshot_restore: self.snapshot_restore.summary(),
            kernel_sweep: self.kernel_sweep.summary(),
            checkpoint_write: self.checkpoint_write.summary(),
        }
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

/// Quantile digests of all five tracked latency distributions — the form
/// that lands in the metrics JSON `timing.latency` object.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummaries {
    /// Digest of [`LatencyShard::chunk_wall`].
    pub chunk_wall: LatencySummary,
    /// Digest of [`LatencyShard::merge_wait`].
    pub merge_wait: LatencySummary,
    /// Digest of [`LatencyShard::snapshot_restore`].
    pub snapshot_restore: LatencySummary,
    /// Digest of [`LatencyShard::kernel_sweep`].
    pub kernel_sweep: LatencySummary,
    /// Digest of [`LatencyShard::checkpoint_write`].
    pub checkpoint_write: LatencySummary,
}

impl LatencySummaries {
    /// The digests with their stable metric names.
    pub fn iter_named(&self) -> [(&'static str, &LatencySummary); 5] {
        [
            ("chunk_wall", &self.chunk_wall),
            ("merge_wait", &self.merge_wait),
            ("snapshot_restore", &self.snapshot_restore),
            ("kernel_sweep", &self.kernel_sweep),
            ("checkpoint_write", &self.checkpoint_write),
        ]
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// The one registry behind every telemetry surface: named counters,
/// named gauges, and the five latency histograms.
///
/// Owned by the merging thread. Workers never touch it — their latency
/// observations ride the chunk partials and are folded here at chunk
/// boundaries, so the merge schedule (and the campaign result) is
/// exactly the one the statistics already use.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    /// The merged latency distributions.
    pub latency: LatencyShard,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a monotonically-published counter to its current total.
    pub fn counter_set(&mut self, name: &'static str, value: u64) {
        self.counters.insert(name, value);
    }

    /// Add to a counter.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Current counter value (0 when never set).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }
}

// ---------------------------------------------------------------------------
// Streaming event log (JSONL)
// ---------------------------------------------------------------------------

/// The lifecycle event names the engine emits, pinned by
/// `schemas/events.schema.json` (and its `event` enum).
pub const EVENT_NAMES: [&str; 8] = [
    "campaign_started",
    "plan_frozen",
    "chunk_merged",
    "checkpoint_written",
    "early_stop",
    "replay_verified",
    "worker_stalled",
    "campaign_finished",
];

/// An append-only JSONL lifecycle log (`--events PATH`).
///
/// One JSON object per line, written whole and flushed per line, so a
/// killed campaign leaves every completed line readable — crash safety
/// by construction rather than by recovery. Write errors are reported to
/// stderr once and then swallowed: a full disk must not take down the
/// campaign (pure-observer rule).
#[derive(Debug)]
pub struct EventLog {
    out: io::BufWriter<std::fs::File>,
    path: PathBuf,
    seq: u64,
    failed: bool,
}

impl EventLog {
    /// Create (truncating) the log at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self {
            out: io::BufWriter::new(std::fs::File::create(path)?),
            path: path.to_owned(),
            seq: 0,
            failed: false,
        })
    }

    /// Append one event line. `extra` is either empty or a pre-rendered
    /// JSON fragment starting with `", "` (e.g. `, "chunk": 3`).
    pub fn emit(&mut self, event: &str, elapsed_s: f64, extra: &str) {
        debug_assert!(EVENT_NAMES.contains(&event), "unknown event {event:?}");
        debug_assert!(extra.is_empty() || extra.starts_with(", "));
        let line = format!(
            "{{\"event\": \"{}\", \"seq\": {}, \"elapsed_s\": {}{}}}\n",
            json_escape(event),
            self.seq,
            crate::json::json_num(elapsed_s),
            extra
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

    /// Number of events emitted so far (the next line's `seq`).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Durability point: push buffered bytes to the OS (the per-line
    /// flush already does this; checkpoint boundaries call it again so
    /// the invariant survives future buffering changes).
    pub fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Escape a Prometheus label value (`\`, `"`, newline).
fn prom_label_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render a `{k="v",...}` label block ("" when no labels).
fn prom_labels(labels: &[(&str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_label_escape(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
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

/// Render the registry in the Prometheus text exposition format
/// (version 0.0.4): counters and gauges as single samples, each latency
/// histogram as a `summary` with `quantile` labels plus `_sum`/`_count`.
/// All metric names carry the `xlmc_` prefix.
pub fn prom_render(registry: &MetricsRegistry, labels: &[(&str, String)]) -> String {
    use std::fmt::Write as _;
    let base = prom_labels(labels);
    let mut s = String::with_capacity(2048);
    for (name, value) in registry.counters() {
        let _ = writeln!(s, "# TYPE xlmc_{name} counter");
        let _ = writeln!(s, "xlmc_{name}{base} {value}");
    }
    for (name, value) in registry.gauges() {
        let _ = writeln!(s, "# TYPE xlmc_{name} gauge");
        let _ = writeln!(s, "xlmc_{name}{base} {}", prom_num(value));
    }
    for (name, hist) in registry.latency.iter_named() {
        let _ = writeln!(s, "# TYPE xlmc_{name}_seconds summary");
        for q in [0.5, 0.9, 0.99] {
            let mut q_labels: Vec<(&str, String)> = labels.to_vec();
            q_labels.push(("quantile", format!("{q}")));
            let _ = writeln!(
                s,
                "xlmc_{name}_seconds{} {}",
                prom_labels(&q_labels),
                prom_num(hist.quantile(q))
            );
        }
        let _ = writeln!(s, "xlmc_{name}_seconds_sum{base} {}", prom_num(hist.sum()));
        let _ = writeln!(s, "xlmc_{name}_seconds_count{base} {}", hist.count());
    }
    s
}

/// Write a prom snapshot crash-safely: temp file in the same directory,
/// then an atomic rename over the target — a scraper never sees a
/// half-written exposition.
pub fn write_prom(
    path: &Path,
    registry: &MetricsRegistry,
    labels: &[(&str, String)],
) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, prom_render(registry, labels))?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------------

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

    /// The configured budget.
    pub fn budget(&self) -> Duration {
        self.budget
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

/// Per-level MLMC progress attached to a
/// [`ProgressEvent`](crate::telemetry::ProgressEvent) under
/// `--estimator mlmc`: which level the just-merged chunk ran at and the
/// live per-level run counts, so
/// [`StderrProgress`](crate::telemetry::StderrProgress) can report
/// per-level state instead of one blended line.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

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
        let s = a.summaries();
        assert_eq!(s.chunk_wall.count, 2);
        assert_eq!(s.checkpoint_write, LatencySummary::default());
    }

    #[test]
    fn registry_counters_and_gauges() {
        let mut r = MetricsRegistry::new();
        r.counter_set("runs_total", 1024);
        r.counter_add("runs_total", 512);
        r.gauge_set("ssf", 0.021);
        assert_eq!(r.counter("runs_total"), 1536);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("ssf"), Some(0.021));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn prom_render_is_well_formed() {
        let mut r = MetricsRegistry::new();
        r.counter_set("runs_total", 2048);
        r.gauge_set("ssf", 0.017);
        r.latency.chunk_wall.record(0.25);
        let labels = [
            ("strategy", "importance".to_owned()),
            ("kernel", "weird\"name\\".to_owned()),
        ];
        let text = prom_render(&r, &labels);
        assert!(text.contains("# TYPE xlmc_runs_total counter"));
        assert!(text.contains(
            "xlmc_runs_total{strategy=\"importance\",kernel=\"weird\\\"name\\\\\"} 2048"
        ));
        assert!(text.contains("# TYPE xlmc_ssf gauge"));
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
    }

    #[test]
    fn prom_write_is_atomic_and_parseable() {
        let path = std::env::temp_dir().join(format!("xlmc_prom_{}.txt", std::process::id()));
        let mut r = MetricsRegistry::new();
        r.counter_set("chunks_merged_total", 7);
        write_prom(&path, &r, &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("xlmc_chunks_merged_total 7"));
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
            log.emit("campaign_started", 0.0, ", \"seed\": 42");
            log.emit("chunk_merged", 0.5, ", \"chunk\": 0, \"runs_done\": 512");
            log.emit("campaign_finished", 1.0, "");
            assert_eq!(log.seq(), 3);
            log.flush();
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
}
