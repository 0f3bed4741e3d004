//! Structured span tracing, hot-path counters and per-run provenance.
//!
//! Three faces, all zero-dependency (the JSON writer reuses the hand-rolled
//! escaping/number helpers from [`crate::telemetry`]):
//!
//! 1. **Hierarchical spans** — a [`TraceSink`] hands out RAII
//!    [`SpanGuard`]s; each records one complete (`ph: "X"`) Chrome
//!    trace-event on drop. The file written by [`write_trace`] opens
//!    directly in Perfetto / `chrome://tracing`, and
//!    [`TraceSink::print_self_time`] prints a self-time summary table
//!    (duration minus immediate children) to stderr.
//! 2. **Hot-path counters** — [`CampaignCounters`] (kernel-invariant) and
//!    [`KernelCounters`] (kernel-shape-specific) accumulated per chunk and
//!    merged in chunk order. To keep results and counters bit-identical
//!    across kernels and thread counts, the memo counters are defined
//!    *chunk-locally* via [`CounterScratch`]: the first occurrence of a key
//!    within a chunk is a miss, every repeat a hit. The conclusion memo
//!    itself tells the chunk's fold whether a run's key is the chunk's
//!    first (each entry is stamped with the chunk whose fold last counted
//!    it). Totals then depend only on the multiset of per-run keys inside
//!    each chunk — independent of lane and conclusion order, windows,
//!    worker schedule, and cross-chunk cache warmth — so
//!    they are schedule-invariant lower bounds the real caches (which
//!    persist across chunks) only improve on.
//! 3. **Per-run provenance** — a [`ProvenanceRecord`] per run (ring buffer
//!    of the last [`PROVENANCE_RING_CAP`] plus every successful run) written
//!    into the trace file, and re-derivable solo from
//!    `SplitMix64::for_run(seed, i)` by `estimator::replay_run`.
//!
//! The hard contract: tracing on or off never changes a single result bit.
//! Spans only read the clock; counters are pure functions of per-run
//! outcomes; provenance is copied out of the fold, never fed back in.

use crate::flow::DffMask;
use crate::flow::StrikeClass;
use crate::json::{json_escape, json_num, JsonValue};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;
use xlmc_netlist::GateId;

/// Format tag of the trace file (top-level `"format"` key; extra top-level
/// keys are ignored by Perfetto, which only reads `"traceEvents"`).
pub const TRACE_FORMAT: &str = "xlmc-trace-v1";

/// How many trailing runs the provenance ring keeps (successful runs are
/// kept separately and never evicted).
pub const PROVENANCE_RING_CAP: usize = 256;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One complete span, in Chrome trace-event terms a `ph: "X"` event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (`"chunk"`, `"cones"`, ...).
    pub name: &'static str,
    /// Category (`"prechar"`, `"campaign"`, `"replay"`, ...).
    pub cat: &'static str,
    /// Virtual thread id: 0 for the driver, `1..=threads` for workers.
    pub tid: u32,
    /// Start, in microseconds since the sink was created.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Numeric annotations (chunk index, run index, ...).
    pub args: Vec<(&'static str, f64)>,
}

struct Inner {
    t0: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

/// A sink for trace spans. A disabled sink records nothing and costs one
/// branch per span, so the same code path runs traced and untraced.
pub struct TraceSink {
    inner: Option<Inner>,
}

impl TraceSink {
    /// A sink that records spans.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Inner {
                t0: Instant::now(),
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A sink that records nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span on the driver track (`tid` 0); it closes when the guard
    /// drops.
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard<'_> {
        self.span_args(0, cat, name, &[])
    }

    /// Open a span on the given virtual thread.
    pub fn span_on(&self, tid: u32, cat: &'static str, name: &'static str) -> SpanGuard<'_> {
        self.span_args(tid, cat, name, &[])
    }

    /// Open a span with numeric annotations.
    pub fn span_args(
        &self,
        tid: u32,
        cat: &'static str,
        name: &'static str,
        args: &[(&'static str, f64)],
    ) -> SpanGuard<'_> {
        SpanGuard {
            open: self.inner.as_ref().map(|inner| OpenSpan {
                inner,
                start: Instant::now(),
                name,
                cat,
                tid,
                args: args.to_vec(),
            }),
        }
    }

    /// A snapshot of every recorded event, in completion order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.events.lock().unwrap().clone(),
            None => Vec::new(),
        }
    }

    /// Aggregate self time (duration minus immediate children) per
    /// `(cat, name)`, sorted by self time descending.
    pub fn self_time_summary(&self) -> Vec<SpanSummary> {
        summarize(&self.events())
    }

    /// Print the self-time table to stderr, one row per `(cat, name)`.
    pub fn print_self_time(&self, label: &str) {
        let rows = self.self_time_summary();
        if rows.is_empty() {
            return;
        }
        eprintln!("[{label}] span self-time summary:");
        eprintln!(
            "[{label}]   {:<28} {:>7} {:>12} {:>12}",
            "span", "count", "total ms", "self ms"
        );
        for r in rows {
            eprintln!(
                "[{label}]   {:<28} {:>7} {:>12.3} {:>12.3}",
                format!("{}/{}", r.cat, r.name),
                r.count,
                r.total_us / 1_000.0,
                r.self_us / 1_000.0
            );
        }
    }
}

struct OpenSpan<'a> {
    inner: &'a Inner,
    start: Instant,
    name: &'static str,
    cat: &'static str,
    tid: u32,
    args: Vec<(&'static str, f64)>,
}

/// RAII guard returned by [`TraceSink::span`]; records the event on drop.
pub struct SpanGuard<'a> {
    open: Option<OpenSpan<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let ts_us = open.start.duration_since(open.inner.t0).as_secs_f64() * 1e6;
            let dur_us = open.start.elapsed().as_secs_f64() * 1e6;
            open.inner.events.lock().unwrap().push(TraceEvent {
                name: open.name,
                cat: open.cat,
                tid: open.tid,
                ts_us,
                dur_us,
                args: open.args,
            });
        }
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span category.
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// How many spans carried this `(cat, name)`.
    pub count: usize,
    /// Total duration across all instances, microseconds.
    pub total_us: f64,
    /// Total duration minus time spent in immediate children on the same
    /// virtual thread, microseconds.
    pub self_us: f64,
}

/// Per-tid sorted sweep: a span's immediate children are the spans nested
/// directly inside it on the same virtual thread; self time is duration
/// minus the children's durations.
fn summarize(events: &[TraceEvent]) -> Vec<SpanSummary> {
    let mut per_tid: HashMap<u32, Vec<&TraceEvent>> = HashMap::new();
    for ev in events {
        per_tid.entry(ev.tid).or_default().push(ev);
    }
    type SpanKey = (&'static str, &'static str);
    let mut acc: Vec<(SpanKey, (usize, f64, f64))> = Vec::new();
    let mut index: HashMap<SpanKey, usize> = HashMap::new();
    for evs in per_tid.values_mut() {
        // Parents start no later and end no earlier than their children;
        // sort ties so parents come first.
        evs.sort_by(|a, b| {
            a.ts_us
                .partial_cmp(&b.ts_us)
                .unwrap()
                .then(b.dur_us.partial_cmp(&a.dur_us).unwrap())
        });
        // Stack of (end_us, accumulated child time); pop when a span ends
        // before the next one starts.
        let mut stack: Vec<(f64, f64, &TraceEvent)> = Vec::new();
        let mut flush = |(_, child_us, ev): (f64, f64, &TraceEvent)| {
            let slot = *index.entry((ev.cat, ev.name)).or_insert_with(|| {
                acc.push(((ev.cat, ev.name), (0, 0.0, 0.0)));
                acc.len() - 1
            });
            let (count, total, self_t) = &mut acc[slot].1;
            *count += 1;
            *total += ev.dur_us;
            *self_t += (ev.dur_us - child_us).max(0.0);
        };
        for ev in evs.iter() {
            while let Some(&(end, _, _)) = stack.last() {
                if end <= ev.ts_us {
                    flush(stack.pop().unwrap());
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last_mut() {
                top.1 += ev.dur_us;
            }
            stack.push((ev.ts_us + ev.dur_us, 0.0, ev));
        }
        while let Some(frame) = stack.pop() {
            flush(frame);
        }
    }
    let mut rows: Vec<SpanSummary> = acc
        .into_iter()
        .map(|((cat, name), (count, total_us, self_us))| SpanSummary {
            cat,
            name,
            count,
            total_us,
            self_us,
        })
        .collect();
    rows.sort_by(|a, b| b.self_us.partial_cmp(&a.self_us).unwrap());
    rows
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Kernel-invariant hot-path counters, defined chunk-locally (see the
/// module docs) so the scalar and compiled kernels at any thread count
/// produce identical totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignCounters {
    /// Runs whose injection cycle repeated within the chunk (the
    /// cycle-values memo serves them).
    pub cycle_memo_hits: usize,
    /// Runs striking a cycle first seen in the chunk (golden cycle values
    /// must be materialized).
    pub cycle_memo_misses: usize,
    /// Non-masked runs whose `(T_e, faulty bits)` key repeated within the
    /// chunk (the conclusion memo serves them).
    pub conclusion_memo_hits: usize,
    /// Non-masked runs with a chunk-first `(T_e, faulty bits)` key (a
    /// conclusion must be computed).
    pub conclusion_memo_misses: usize,
    /// Conclusion misses settled by the analytical shortcut.
    pub conclusions_analytic: usize,
    /// Conclusion misses that resumed RTL simulation.
    pub conclusions_rtl: usize,
    /// Chunks that had to clone a resident Soc for RTL resume (first RTL
    /// conclusion in the chunk).
    pub soc_clones: usize,
    /// RTL conclusions served by restoring the resident Soc instead of
    /// cloning a fresh one.
    pub soc_restores: usize,
    /// Transient pulses propagated through the combinational network,
    /// summed per lane (identical between kernels by the lane-equivalence
    /// property tests).
    pub pulses_propagated: usize,
    /// Samples injecting before the start of the benchmark (no strike).
    pub out_of_run: usize,
}

impl CampaignCounters {
    /// Accumulate another chunk's counters.
    pub fn add(&mut self, o: &CampaignCounters) {
        self.cycle_memo_hits += o.cycle_memo_hits;
        self.cycle_memo_misses += o.cycle_memo_misses;
        self.conclusion_memo_hits += o.conclusion_memo_hits;
        self.conclusion_memo_misses += o.conclusion_memo_misses;
        self.conclusions_analytic += o.conclusions_analytic;
        self.conclusions_rtl += o.conclusions_rtl;
        self.soc_clones += o.soc_clones;
        self.soc_restores += o.soc_restores;
        self.pulses_propagated += o.pulses_propagated;
        self.out_of_run += o.out_of_run;
    }

    /// Conclusion-memo hit rate in `[0, 1]`, 0 before any lookup.
    pub fn conclusion_hit_rate(&self) -> f64 {
        let lookups = self.conclusion_memo_hits + self.conclusion_memo_misses;
        if lookups == 0 {
            0.0
        } else {
            self.conclusion_memo_hits as f64 / lookups as f64
        }
    }

    /// Cycle-values-memo hit rate in `[0, 1]`, 0 before any lookup.
    pub fn cycle_hit_rate(&self) -> f64 {
        let lookups = self.cycle_memo_hits + self.cycle_memo_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cycle_memo_hits as f64 / lookups as f64
        }
    }
}

/// Kernel-shape counters: lane occupancy and frame stratification only
/// exist for the compiled kernel, and the gate-visit count depends on how
/// strikes are grouped. These are *not* part of the cross-kernel equality
/// contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// 256-lane sweeps dispatched (compiled kernel only).
    pub lane_batches: usize,
    /// Lanes occupied across all sweeps; mean occupancy is
    /// `lanes_occupied / lane_batches`.
    pub lanes_occupied: usize,
    /// Frame strata (distinct injection cycles per sweep) encountered.
    pub frame_groups: usize,
    /// Gates popped from the transient-propagation worklist (the compiled
    /// kernel's logical pass).
    pub gates_visited: usize,
    /// Compiled-kernel lanes whose pulse timing was replayed: they pulsed
    /// at a D pin or travelled far enough to possibly fade.
    pub timed_lanes: usize,
    /// Timed lanes the scalar kernel re-simulated (a pulse faded next to a
    /// live one at some op).
    pub resimulated_lanes: usize,
}

impl KernelCounters {
    /// Accumulate another chunk's counters.
    pub fn add(&mut self, o: &KernelCounters) {
        self.lane_batches += o.lane_batches;
        self.lanes_occupied += o.lanes_occupied;
        self.frame_groups += o.frame_groups;
        self.gates_visited += o.gates_visited;
        self.timed_lanes += o.timed_lanes;
        self.resimulated_lanes += o.resimulated_lanes;
    }

    /// Mean lanes occupied per batch, 0 before any batch (scalar kernel).
    pub fn mean_lane_occupancy(&self) -> f64 {
        if self.lane_batches == 0 {
            0.0
        } else {
            self.lanes_occupied as f64 / self.lane_batches as f64
        }
    }
}

/// Per-worker scratch implementing the chunk-local counter model: reset at
/// each chunk start, then given the chunk's injection cycles
/// ([`distinct_cycles`](Self::distinct_cycles), from the single
/// estimator's chunk fold) or, in the MLMC chunks, every run in fold order
/// ([`record_run`](Self::record_run)). First occurrence of a key within
/// the chunk is a miss, repeats are hits — a pure function of the chunk's
/// run outcomes, so scalar and compiled chunks agree exactly. Which run is
/// a conclusion key's first in the chunk comes from the conclusion memo's
/// stamp, taken as the chunk folds
/// ([`crate::resume::ConclusionMemo::stamp`]); this scratch tracks the
/// injection cycles and whether an RTL conclusion was met.
#[derive(Default)]
pub(crate) struct CounterScratch {
    /// Injection cycles seen this chunk, one bit per `T_e`.
    seen_te: Vec<u64>,
    /// The words of `seen_te` set this chunk (cleared at the next start).
    te_words: Vec<usize>,
    rtl_seen: bool,
}

impl CounterScratch {
    /// Reset for a new chunk (keeps allocations).
    pub(crate) fn begin_chunk(&mut self) {
        for &w in &self.te_words {
            self.seen_te[w] = 0;
        }
        self.te_words.clear();
        self.rtl_seen = false;
    }

    /// Mark `te` seen; `true` on its first occurrence this chunk.
    fn first_te(&mut self, te: u64) -> bool {
        let (w, bit) = ((te / 64) as usize, 1u64 << (te % 64));
        if w >= self.seen_te.len() {
            self.seen_te.resize(w + 1, 0);
        }
        let word = &mut self.seen_te[w];
        if *word & bit != 0 {
            return false;
        }
        if *word == 0 {
            self.te_words.push(w);
        }
        *word |= bit;
        true
    }

    /// How many distinct in-run cycles `te` holds that the chunk has not
    /// seen yet, marking them seen: the chunk's cycle-memo misses.
    pub(crate) fn distinct_cycles(&mut self, te: &[Option<u64>]) -> usize {
        te.iter().flatten().filter(|&&t| self.first_te(t)).count()
    }

    /// Fold one run's outcome into the chunk's counters; `first_in_chunk`
    /// says whether its `(te, regs)` conclusion key is the chunk's first.
    pub(crate) fn record_run(
        &mut self,
        c: &mut CampaignCounters,
        te: Option<u64>,
        regs: DffMask,
        first_in_chunk: bool,
        analytic: bool,
        pulses: usize,
    ) {
        let Some(te) = te else {
            c.out_of_run += 1;
            return;
        };
        if self.first_te(te) {
            c.cycle_memo_misses += 1;
        } else {
            c.cycle_memo_hits += 1;
        }
        c.pulses_propagated += pulses;
        if regs.is_empty() {
            // Masked after hardening: the conclusion memo is never consulted.
            return;
        }
        if !first_in_chunk {
            c.conclusion_memo_hits += 1;
            return;
        }
        c.conclusion_memo_misses += 1;
        if analytic {
            c.conclusions_analytic += 1;
        } else {
            c.conclusions_rtl += 1;
            if self.rtl_seen {
                c.soc_restores += 1;
            } else {
                self.rtl_seen = true;
                c.soc_clones += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

/// Everything needed to name, reproduce and audit one campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceRecord {
    /// Run index `i`; the run's RNG is `SplitMix64::for_run(seed, i)`.
    pub run_index: u64,
    /// Timing distance `t = T_t − T_e` of the sampled attack.
    pub t: i64,
    /// Center of the radiated spot.
    pub center: GateId,
    /// Radius of the radiated spot.
    pub radius: f64,
    /// Strike-phase bin within the injection cycle.
    pub phase: u8,
    /// The injection cycle `T_e`, `None` when the sample fell before the
    /// start of the benchmark.
    pub te: Option<u64>,
    /// Importance weight `w(t, p)`.
    pub weight: f64,
    /// Where the errors landed.
    pub class: StrikeClass,
    /// The verdict `e(t, p)`.
    pub success: bool,
    /// Whether the verdict came from the analytical shortcut.
    pub analytic: bool,
}

/// Stable string name of a strike class, shared by the trace writer and
/// its schema.
pub fn class_str(class: StrikeClass) -> &'static str {
    match class {
        StrikeClass::Masked => "masked",
        StrikeClass::MemoryOnly => "memory_only",
        StrikeClass::Mixed => "mixed",
    }
}

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

/// The counters as a JSON object (`"kernel"` nested), shared between the
/// metrics document and the trace file.
pub(crate) fn counters_json(c: &CampaignCounters, k: &KernelCounters) -> String {
    format!(
        concat!(
            "{{\"cycle_memo_hits\": {}, \"cycle_memo_misses\": {}, ",
            "\"conclusion_memo_hits\": {}, \"conclusion_memo_misses\": {}, ",
            "\"conclusions_analytic\": {}, \"conclusions_rtl\": {}, ",
            "\"soc_clones\": {}, \"soc_restores\": {}, ",
            "\"pulses_propagated\": {}, \"out_of_run\": {}, ",
            "\"kernel\": {{\"lane_batches\": {}, \"lanes_occupied\": {}, ",
            "\"frame_groups\": {}, \"gates_visited\": {}, ",
            "\"timed_lanes\": {}, \"resimulated_lanes\": {}}}}}"
        ),
        c.cycle_memo_hits,
        c.cycle_memo_misses,
        c.conclusion_memo_hits,
        c.conclusion_memo_misses,
        c.conclusions_analytic,
        c.conclusions_rtl,
        c.soc_clones,
        c.soc_restores,
        c.pulses_propagated,
        c.out_of_run,
        k.lane_batches,
        k.lanes_occupied,
        k.frame_groups,
        k.gates_visited,
        k.timed_lanes,
        k.resimulated_lanes,
    )
}

fn u_field(v: &JsonValue, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .map(|x| x as usize)
        .ok_or_else(|| format!("counters: missing or non-integer {key:?}"))
}

/// Parse the `"counters"` object written by [`counters_json`] (checkpoint
/// round-trip).
pub(crate) fn counters_from_json(
    v: &JsonValue,
) -> Result<(CampaignCounters, KernelCounters), String> {
    let c = CampaignCounters {
        cycle_memo_hits: u_field(v, "cycle_memo_hits")?,
        cycle_memo_misses: u_field(v, "cycle_memo_misses")?,
        conclusion_memo_hits: u_field(v, "conclusion_memo_hits")?,
        conclusion_memo_misses: u_field(v, "conclusion_memo_misses")?,
        conclusions_analytic: u_field(v, "conclusions_analytic")?,
        conclusions_rtl: u_field(v, "conclusions_rtl")?,
        soc_clones: u_field(v, "soc_clones")?,
        soc_restores: u_field(v, "soc_restores")?,
        pulses_propagated: u_field(v, "pulses_propagated")?,
        out_of_run: u_field(v, "out_of_run")?,
    };
    let kv = v
        .get("kernel")
        .ok_or_else(|| "counters: missing \"kernel\"".to_string())?;
    let k = KernelCounters {
        lane_batches: u_field(kv, "lane_batches")?,
        lanes_occupied: u_field(kv, "lanes_occupied")?,
        frame_groups: u_field(kv, "frame_groups")?,
        gates_visited: u_field(kv, "gates_visited")?,
        // Absent from checkpoints written before the compiled kernel timed
        // only some lanes.
        timed_lanes: u_field(kv, "timed_lanes").unwrap_or(0),
        resimulated_lanes: u_field(kv, "resimulated_lanes").unwrap_or(0),
    };
    Ok((c, k))
}

fn provenance_json(rec: &ProvenanceRecord) -> String {
    format!(
        concat!(
            "{{\"run_index\": {}, \"t\": {}, \"center\": {}, \"radius\": {}, ",
            "\"phase\": {}, \"te\": {}, \"weight\": {}, \"class\": \"{}\", ",
            "\"success\": {}, \"analytic\": {}}}"
        ),
        rec.run_index,
        rec.t,
        rec.center.index(),
        json_num(rec.radius),
        rec.phase,
        match rec.te {
            Some(te) => te.to_string(),
            None => "null".to_string(),
        },
        json_num(rec.weight),
        class_str(rec.class),
        rec.success,
        rec.analytic,
    )
}

/// Serialize the whole trace document: Chrome trace events plus the
/// counters and provenance sections.
pub fn trace_json(
    sink: &TraceSink,
    counters: &CampaignCounters,
    kernel: &KernelCounters,
    ring: &[ProvenanceRecord],
    successes: &[ProvenanceRecord],
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"format\": \"{TRACE_FORMAT}\",");
    let _ = writeln!(s, "  \"traceEvents\": [");
    let events = sink.events();
    for (i, ev) in events.iter().enumerate() {
        let comma = if i + 1 == events.len() { "" } else { "," };
        let mut args = String::new();
        for (j, (key, val)) in ev.args.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(args, "{sep}\"{}\": {}", json_escape(key), json_num(*val));
        }
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{{args}}}}}{comma}",
            json_escape(ev.name),
            json_escape(ev.cat),
            json_num(ev.ts_us),
            json_num(ev.dur_us),
            ev.tid,
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"counters\": {},", counters_json(counters, kernel));
    let _ = writeln!(s, "  \"provenance\": {{");
    for (key, records, comma) in [("ring", ring, ","), ("successes", successes, "")] {
        let _ = writeln!(s, "    \"{key}\": [");
        for (i, rec) in records.iter().enumerate() {
            let rc = if i + 1 == records.len() { "" } else { "," };
            let _ = writeln!(s, "      {}{rc}", provenance_json(rec));
        }
        let _ = writeln!(s, "    ]{comma}");
    }
    let _ = writeln!(s, "  }}");
    let _ = write!(s, "}}");
    s
}

/// Write the trace document atomically (`.tmp` then rename), like the
/// metrics and checkpoint writers.
pub fn write_trace(
    path: &Path,
    sink: &TraceSink,
    counters: &CampaignCounters,
    kernel: &KernelCounters,
    ring: &[ProvenanceRecord],
    successes: &[ProvenanceRecord],
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, trace_json(sink, counters, kernel, ring, successes))?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{Concluded, MASKED_SLOT};
    use crate::resume::{ConclusionKey, ConclusionMemo, WordHash};
    use std::collections::HashSet;

    /// The chunk-counter model before the memo carried stamps, kept as the
    /// oracle of the stamped one: a per-chunk set of injection cycles and
    /// of conclusion keys, a key's first insert being the chunk's miss.
    #[derive(Default)]
    struct SeenSetCounters {
        seen_te: HashSet<u64>,
        seen: HashSet<ConclusionKey, WordHash>,
        rtl_seen: bool,
    }

    impl SeenSetCounters {
        fn begin_chunk(&mut self) {
            self.seen_te.clear();
            self.seen.clear();
            self.rtl_seen = false;
        }

        fn record_run(
            &mut self,
            c: &mut CampaignCounters,
            te: Option<u64>,
            regs: DffMask,
            analytic: bool,
            pulses: usize,
        ) {
            let Some(te) = te else {
                c.out_of_run += 1;
                return;
            };
            if self.seen_te.insert(te) {
                c.cycle_memo_misses += 1;
            } else {
                c.cycle_memo_hits += 1;
            }
            c.pulses_propagated += pulses;
            if regs.is_empty() {
                return;
            }
            if !self.seen.insert((te, regs)) {
                c.conclusion_memo_hits += 1;
                return;
            }
            c.conclusion_memo_misses += 1;
            if analytic {
                c.conclusions_analytic += 1;
            } else {
                c.conclusions_rtl += 1;
                if self.rtl_seen {
                    c.soc_restores += 1;
                } else {
                    self.rtl_seen = true;
                    c.soc_clones += 1;
                }
            }
        }
    }

    /// The engine's model: a worker's conclusion memo holds each run's
    /// key, the chunk's fold stamps the key's slot to learn whether the run
    /// is the chunk's first of it, and the [`CounterScratch`] folds the
    /// flags.
    #[derive(Default)]
    struct StampedCounters {
        memo: ConclusionMemo,
        ctr: CounterScratch,
        chunk: u32,
    }

    impl StampedCounters {
        fn begin_chunk(&mut self, chunk: u32) {
            self.chunk = chunk;
            self.ctr.begin_chunk();
        }

        /// Conclude a run's key as a kernel does: the memo is consulted
        /// only for in-run, unmasked strikes. Returns the key's slot,
        /// [`MASKED_SLOT`] for none.
        fn conclude(&mut self, te: Option<u64>, regs: DffMask, analytic: bool) -> u32 {
            match te {
                Some(te) if !regs.is_empty() => {
                    let verdict = Concluded {
                        success: false,
                        class: StrikeClass::Mixed,
                        analytic,
                    };
                    self.memo.probe((te, regs), || verdict)
                }
                _ => MASKED_SLOT,
            }
        }

        /// Conclude and fold one run, in the scalar engine's order.
        fn record_run(
            &mut self,
            c: &mut CampaignCounters,
            te: Option<u64>,
            regs: DffMask,
            analytic: bool,
            pulses: usize,
        ) {
            let slot = self.conclude(te, regs, analytic);
            let first = self.memo.stamp(slot, self.chunk);
            self.ctr.record_run(c, te, regs, first, analytic, pulses);
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        {
            let _a = sink.span("cat", "a");
            let _b = sink.span_on(3, "cat", "b");
        }
        assert!(!sink.is_enabled());
        assert!(sink.events().is_empty());
        assert!(sink.self_time_summary().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let sink = TraceSink::enabled();
        {
            let _outer = sink.span("t", "outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = sink.span("t", "inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let events = sink.events();
        assert_eq!(events.len(), 2);
        // Drop order: inner completes first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        assert!(events[1].dur_us >= events[0].dur_us);

        let rows = sink.self_time_summary();
        let outer = rows.iter().find(|r| r.name == "outer").unwrap();
        let inner = rows.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(outer.count, 1);
        assert!(outer.total_us >= inner.total_us);
        assert!(
            outer.self_us <= outer.total_us - inner.total_us + 1.0,
            "self time should exclude the nested span: outer self {} total {} inner {}",
            outer.self_us,
            outer.total_us,
            inner.total_us
        );
    }

    #[test]
    fn counter_scratch_models_chunk_local_memos() {
        let mut ctr = StampedCounters::default();
        let mut c = CampaignCounters::default();
        let bits_a = DffMask::from_iter([0]);
        let bits_b = DffMask::from_iter([21]);
        let none = DffMask::default();
        ctr.begin_chunk(0);
        // Out of run.
        ctr.record_run(&mut c, None, none, false, 0);
        // First strike at cycle 7, masked after hardening.
        ctr.record_run(&mut c, Some(7), none, false, 3);
        // Same cycle, distinct bits -> conclusion miss (rtl) + soc clone.
        ctr.record_run(&mut c, Some(7), bits_a, false, 2);
        // Repeat key -> conclusion hit.
        ctr.record_run(&mut c, Some(7), bits_a, false, 2);
        // New bits, same cycle -> miss, analytic.
        ctr.record_run(&mut c, Some(7), bits_b, true, 1);
        // New cycle, rtl -> restore (soc already resident this chunk).
        ctr.record_run(&mut c, Some(9), bits_a, false, 4);
        assert_eq!(c.out_of_run, 1);
        assert_eq!(c.cycle_memo_misses, 2);
        assert_eq!(c.cycle_memo_hits, 3);
        assert_eq!(c.conclusion_memo_misses, 3);
        assert_eq!(c.conclusion_memo_hits, 1);
        assert_eq!(c.conclusions_analytic, 1);
        assert_eq!(c.conclusions_rtl, 2);
        assert_eq!(c.soc_clones, 1);
        assert_eq!(c.soc_restores, 1);
        assert_eq!(c.pulses_propagated, 3 + 2 + 2 + 1 + 4);

        // A new chunk forgets everything.
        let mut c2 = CampaignCounters::default();
        ctr.begin_chunk(1);
        ctr.record_run(&mut c2, Some(7), bits_a, false, 2);
        assert_eq!(c2.cycle_memo_misses, 1);
        assert_eq!(c2.conclusion_memo_misses, 1);
        assert_eq!(c2.soc_clones, 1);
    }

    #[test]
    fn counter_totals_are_order_independent_within_a_chunk() {
        // The multiset of (te, bits, analytic) keys determines the totals;
        // permuting the fold order must not change them.
        let regs = |i: &[usize]| i.iter().copied().collect::<DffMask>();
        let runs: Vec<(Option<u64>, DffMask, bool, usize)> = vec![
            (Some(3), regs(&[]), false, 1),
            (Some(3), regs(&[0]), false, 2),
            (Some(5), regs(&[0]), true, 3),
            (None, regs(&[]), false, 0),
            (Some(3), regs(&[0]), false, 2),
            (Some(5), regs(&[39]), false, 4),
        ];
        let fold = |order: &[usize]| {
            let mut ctr = StampedCounters::default();
            let mut c = CampaignCounters::default();
            ctr.begin_chunk(0);
            for &i in order {
                let (te, bits, analytic, pulses) = &runs[i];
                ctr.record_run(&mut c, *te, *bits, *analytic, *pulses);
            }
            c
        };
        let forward = fold(&[0, 1, 2, 3, 4, 5]);
        let reversed = fold(&[5, 4, 3, 2, 1, 0]);
        let shuffled = fold(&[2, 5, 0, 3, 1, 4]);
        assert_eq!(forward, reversed);
        assert_eq!(forward, shuffled);
    }

    /// One run of a generated stream: `(te, DFF indices, pulses)`; `None`
    /// is out of run, an empty index list a strike masked by hardening.
    type StreamRun = (Option<u64>, Vec<usize>, usize);

    /// Whether a generated key concludes analytically: a function of the
    /// key, as the real verdict is.
    fn analytic_of(te: u64, regs: DffMask) -> bool {
        (te + regs.iter().sum::<usize>() as u64).is_multiple_of(3)
    }

    fn stream_run() -> impl proptest::Strategy<Value = StreamRun> {
        use proptest::prelude::*;
        (
            prop_oneof![1 => Just(None), 7 => (0u64..5).prop_map(Some)],
            proptest::collection::vec(0usize..5, 0..3),
            0usize..4,
        )
    }

    proptest::proptest! {
        /// The stamped memo and the seen-set oracle agree on every counter
        /// of every chunk: a window of several chunks over one memo
        /// (repeats within and across chunks), masked and out-of-run runs,
        /// both conclusion kinds, every lane of the window concluded before
        /// any chunk folds and in an order that interleaves the chunks,
        /// uncounted probes (the MLMC twin's) in between, and a first
        /// chunk past 0, as a resumed campaign has.
        #[test]
        fn stamped_memo_counters_match_the_seen_set_oracle(
            first_chunk in 0u32..3,
            chunks in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        stream_run(),
                        proptest::prelude::any::<u32>(),
                        proptest::prop_oneof![
                            proptest::prelude::Just(None),
                            proptest::Strategy::prop_map(stream_run(), Some),
                        ],
                    ),
                    0..40,
                ),
                1..5,
            ),
        ) {
            let mut stamped = StampedCounters::default();
            let mut oracle = SeenSetCounters::default();
            let mask = |idx: &[usize]| idx.iter().copied().collect::<DffMask>();
            // Conclude the whole window in a shuffled lane order, probing
            // a twin key without a stamp after each lane.
            let mut lanes: Vec<(usize, usize)> = chunks
                .iter()
                .enumerate()
                .flat_map(|(k, runs)| (0..runs.len()).map(move |i| (k, i)))
                .collect();
            lanes.sort_by_key(|&(k, i)| chunks[k][i].1);
            let mut slots: Vec<Vec<u32>> = chunks.iter().map(|r| vec![0; r.len()]).collect();
            for &(k, i) in &lanes {
                let ((te, idx, _), _, twin) = &chunks[k][i];
                let regs = mask(idx);
                let analytic = te.is_some_and(|te| analytic_of(te, regs));
                slots[k][i] = stamped.conclude(*te, regs, analytic);
                if let Some((Some(tt), tidx, _)) = twin {
                    let tregs = mask(tidx);
                    if !tregs.is_empty() {
                        let verdict = Concluded {
                            success: false,
                            class: StrikeClass::Mixed,
                            analytic: analytic_of(*tt, tregs),
                        };
                        stamped.memo.probe((*tt, tregs), || verdict);
                    }
                }
            }
            // Fold each chunk in run order, stamping as it goes.
            for (k, runs) in chunks.iter().enumerate() {
                let (mut got, mut want) = (CampaignCounters::default(), CampaignCounters::default());
                stamped.begin_chunk(first_chunk + k as u32);
                oracle.begin_chunk();
                for (i, ((te, idx, pulses), _, _)) in runs.iter().enumerate() {
                    let regs = mask(idx);
                    let analytic = te.is_some_and(|te| analytic_of(te, regs));
                    let first = stamped.memo.stamp(slots[k][i], stamped.chunk);
                    stamped.ctr.record_run(&mut got, *te, regs, first, analytic, *pulses);
                    oracle.record_run(&mut want, *te, regs, analytic, *pulses);
                }
                proptest::prop_assert_eq!(got, want, "chunk {}", k);
            }
        }
    }

    #[test]
    fn trace_json_is_parseable_and_carries_all_sections() {
        let sink = TraceSink::enabled();
        {
            let _s = sink.span_args(2, "campaign", "chunk", &[("chunk", 4.0)]);
        }
        let c = CampaignCounters {
            cycle_memo_hits: 10,
            conclusion_memo_misses: 3,
            ..Default::default()
        };
        let k = KernelCounters {
            lane_batches: 8,
            lanes_occupied: 512,
            timed_lanes: 37,
            resimulated_lanes: 2,
            ..Default::default()
        };
        let rec = ProvenanceRecord {
            run_index: 42,
            t: -3,
            center: GateId(7),
            radius: 1.5,
            phase: 6,
            te: Some(19),
            weight: 0.25,
            class: StrikeClass::Mixed,
            success: true,
            analytic: false,
        };
        let none_te = ProvenanceRecord {
            te: None,
            class: StrikeClass::Masked,
            success: false,
            ..rec.clone()
        };
        let json = trace_json(&sink, &c, &k, &[none_te], &[rec]);
        let doc = JsonValue::parse(&json).expect("trace json parses");
        assert_eq!(
            doc.get("format").and_then(JsonValue::as_str),
            Some(TRACE_FORMAT)
        );
        let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("name").and_then(JsonValue::as_str),
            Some("chunk")
        );
        assert_eq!(events[0].get("tid").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("chunk"))
                .and_then(JsonValue::as_u64),
            Some(4)
        );
        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters.get("cycle_memo_hits").and_then(JsonValue::as_u64),
            Some(10)
        );
        let (rc, rk) = counters_from_json(counters).expect("counters round-trip");
        assert_eq!(rc, c);
        assert_eq!(rk, k);
        let prov = doc.get("provenance").unwrap();
        let succ = prov.get("successes").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(
            succ[0].get("run_index").and_then(JsonValue::as_u64),
            Some(42)
        );
        assert_eq!(
            succ[0].get("class").and_then(JsonValue::as_str),
            Some("mixed")
        );
        let ring = prov.get("ring").and_then(JsonValue::as_arr).unwrap();
        assert!(ring[0].get("te").is_some());
    }

    /// Counters written before the lane-timing counters existed still
    /// parse, with those two at zero.
    #[test]
    fn counters_without_lane_timing_parse_as_zero() {
        let k = KernelCounters {
            lane_batches: 3,
            gates_visited: 99,
            ..Default::default()
        };
        let old = counters_json(&CampaignCounters::default(), &k)
            .replace(", \"timed_lanes\": 0, \"resimulated_lanes\": 0", "");
        assert!(!old.contains("timed_lanes"), "{old}");
        let (_, rk) = counters_from_json(&JsonValue::parse(&old).unwrap()).unwrap();
        assert_eq!(rk, k);
    }

    #[test]
    fn mean_occupancy_and_hit_rates_handle_zero() {
        assert_eq!(KernelCounters::default().mean_lane_occupancy(), 0.0);
        assert_eq!(CampaignCounters::default().conclusion_hit_rate(), 0.0);
        assert_eq!(CampaignCounters::default().cycle_hit_rate(), 0.0);
        let k = KernelCounters {
            lane_batches: 4,
            lanes_occupied: 200,
            ..Default::default()
        };
        assert_eq!(k.mean_lane_occupancy(), 50.0);
    }
}
