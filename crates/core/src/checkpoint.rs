//! The merged campaign prefix and its crash-safe checkpoint.
//!
//! The campaign driver folds chunk partials strictly in chunk order into
//! one [`MergeState`]. That state plus a five-field header (seed, requested
//! runs, chunk size, strategy, kernel) *is* the checkpoint: per-run RNG
//! streams derive from `(seed, run_index)` alone, so re-running chunks
//! `merged_chunks..` folds exactly the bits an uninterrupted campaign
//! would. Every `f64` is stored as its IEEE-754 bit pattern
//! (`xlmc-checkpoint-v4`, pinned by `schemas/checkpoint.schema.json`), and
//! writes go through a temp file + rename, so a crash mid-write leaves the
//! previous snapshot intact. The last member is a checksum of the body
//! before it, so a value the file stores only once (a Welford `m2`, a
//! weight sum) cannot change unseen. A checkpoint that cannot be read,
//! parsed, checked, matched to the campaign or written is a
//! [`CampaignError::Checkpoint`] naming its path.

use crate::estimator::{
    CampaignError, CampaignKernel, CampaignResult, ChunkPartial, ClassCounts, EstimatorKind,
    StopReason,
};
use crate::json::{bits_str, f64_from_bits_str, get_u64, json_escape, JsonValue};
use crate::multilevel::{MlmcEstimator, MlmcSummary, LEVEL_RTL};
use crate::stats::RunningStats;
use crate::trace::{counters_from_json, counters_json, CampaignCounters, KernelCounters};
use std::collections::BTreeMap;
use std::path::Path;
use xlmc_soc::MpuBit;

/// The format tag. `v4` added the body checksum; earlier versions are
/// refused.
const CHECKPOINT_FORMAT: &str = "xlmc-checkpoint-v4";

/// FNV-1a over a checkpoint's serialized body. A change of any one byte of
/// the body always changes it (each step is a bijection of the state), and
/// wider changes collide with probability 2^-64.
fn checksum(body: &str) -> u64 {
    body.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The merged campaign prefix: every statistic folded from chunks
/// `0..merged_chunks`, in chunk order. Restoring it and folding the
/// remaining chunks reproduces an uninterrupted campaign bit-for-bit.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct MergeState {
    /// Which estimator the accumulators below serve.
    pub(crate) estimator: EstimatorKind,
    /// The single-estimator stream (untouched under MLMC).
    pub(crate) stats: RunningStats,
    /// MLMC level-0 stream of `w·e_rtl` (empty under `Single`).
    pub(crate) level0: RunningStats,
    /// MLMC level-1 stream of the signed correction `w·(e_gate − e_rtl)`.
    pub(crate) level1_diff: RunningStats,
    /// MLMC level-1 gate marginal `w·e_gate`.
    pub(crate) level1_gate: RunningStats,
    /// MLMC level-1 RTL marginal `w·e_rtl`.
    pub(crate) level1_rtl: RunningStats,
    /// The published post-pilot level-1 chunk share, set when the pilot
    /// finishes merging (carried through checkpoints so a resumed campaign
    /// replays the identical schedule).
    pub(crate) plan_ratio: Option<f64>,
    /// Level tag of every merged chunk, in chunk order.
    pub(crate) chunk_levels: Vec<u8>,
    pub(crate) class_counts: ClassCounts,
    pub(crate) analytic_runs: usize,
    pub(crate) rtl_runs: usize,
    pub(crate) successes: usize,
    pub(crate) attribution: BTreeMap<MpuBit, f64>,
    pub(crate) w_sum: f64,
    pub(crate) w_sq_sum: f64,
    pub(crate) counters: CampaignCounters,
    pub(crate) kernel_counters: KernelCounters,
    pub(crate) first_success: Option<u64>,
    /// Running estimate at each merged chunk boundary, undownsampled.
    pub(crate) boundaries: Vec<(usize, f64)>,
    /// Chunks folded so far — also the index of the next chunk to fold.
    pub(crate) merged_chunks: usize,
}

impl MergeState {
    pub(crate) fn fold(&mut self, p: ChunkPartial, chunk_end: usize) {
        match self.estimator {
            EstimatorKind::Single => self.stats.merge(&p.stats),
            EstimatorKind::Mlmc => {
                self.chunk_levels.push(p.level);
                if p.level == LEVEL_RTL {
                    self.level0.merge(&p.stats);
                } else {
                    self.level1_diff.merge(&p.stats);
                    self.level1_gate.merge(&p.gate_stats);
                    self.level1_rtl.merge(&p.rtl_stats);
                }
            }
        }
        self.class_counts.add(&p.class_counts);
        self.analytic_runs += p.analytic_runs;
        self.rtl_runs += p.rtl_runs;
        self.successes += p.successes;
        p.attribution.merge_into(&mut self.attribution);
        self.w_sum += p.w_sum;
        self.w_sq_sum += p.w_sq_sum;
        self.counters.add(&p.counters);
        self.kernel_counters.add(&p.kernel_counters);
        // Chunks fold in order, so the first Some seen is the global first.
        if self.first_success.is_none() {
            self.first_success = p.first_success;
        }
        self.merged_chunks += 1;
        // Freeze the MLMC sample-allocation plan the moment the pilot is
        // fully merged: a pure function of the pilot variances, so every
        // schedule — threads, kernels, resume — derives the same ratio.
        if self.estimator == EstimatorKind::Mlmc
            && self.plan_ratio.is_none()
            && self.merged_chunks == MlmcEstimator::PILOT_CHUNKS
        {
            let est = MlmcEstimator::default();
            self.plan_ratio =
                Some(est.optimal_share1(self.level0.variance(), self.level1_diff.variance()));
        }
        self.boundaries.push((chunk_end, self.current_ssf()));
    }

    /// Check the redundancy the merge state carries, so that a corrupt
    /// file is refused instead of resumed into a different result: every
    /// boundary ends its chunk, every run is counted once by the
    /// accumulators, the class split, the conclusion split and the
    /// counters, and the last boundary holds the current estimate. A
    /// value stored only once (a Welford `m2`, a weight sum, an
    /// attribution weight) cannot be checked this way.
    fn check_consistent(&self, chunk_runs: usize, requested_runs: usize) -> Result<(), String> {
        let runs = self.runs_merged();
        for (k, &(end, _)) in self.boundaries.iter().enumerate() {
            let want = (k + 1).saturating_mul(chunk_runs).min(requested_runs);
            if end != want {
                return Err(format!("boundary {k} ends at run {end}, not {want}"));
            }
        }
        let counted = match self.estimator {
            EstimatorKind::Single => self.stats.count(),
            EstimatorKind::Mlmc => {
                let n1 = self.level1_diff.count();
                if self.level1_gate.count() != n1 || self.level1_rtl.count() != n1 {
                    return Err("level-1 streams disagree on their count".to_owned());
                }
                if self.chunk_levels.len() != self.merged_chunks {
                    return Err("chunk_levels does not cover the merged chunks".to_owned());
                }
                self.level0.count().saturating_add(n1)
            }
        };
        // Sums of values read from the file: an overflow is a mismatch.
        let sum = |xs: &[usize]| xs.iter().try_fold(0usize, |a, &x| a.checked_add(x));
        let cc = &self.class_counts;
        let c = &self.counters;
        let hit = sum(&[cc.memory_only, cc.mixed]);
        let checks = [
            ("sample count", counted == runs as u64),
            (
                "class counts",
                sum(&[cc.masked, hit.unwrap_or(usize::MAX)]) == Some(runs),
            ),
            (
                "analytic/rtl split",
                sum(&[self.analytic_runs, self.rtl_runs]) == hit,
            ),
            ("successes", self.successes <= runs),
            (
                "first success",
                self.first_success.is_none_or(|i| i < runs as u64),
            ),
            (
                "cycle memo counters",
                sum(&[c.cycle_memo_hits, c.cycle_memo_misses, c.out_of_run]) == Some(runs),
            ),
            (
                "conclusion memo counters",
                sum(&[c.conclusion_memo_hits, c.conclusion_memo_misses]) == hit,
            ),
            (
                "conclusion counters",
                sum(&[c.conclusions_analytic, c.conclusions_rtl]) == Some(c.conclusion_memo_misses),
            ),
            (
                "resident-system counters",
                sum(&[c.soc_clones, c.soc_restores]) == Some(c.conclusions_rtl),
            ),
            (
                "last boundary",
                self.boundaries
                    .last()
                    .is_none_or(|&(_, mean)| mean.to_bits() == self.current_ssf().to_bits()),
            ),
        ];
        match checks.iter().find(|(_, ok)| !ok) {
            Some((what, _)) => Err(format!("inconsistent {what} for {runs} merged runs")),
            None => Ok(()),
        }
    }

    pub(crate) fn runs_merged(&self) -> usize {
        self.boundaries.last().map_or(0, |&(runs, _)| runs)
    }

    /// The running point estimate of the merged prefix: the plain Welford
    /// mean under `Single`, the telescoped `mean₀ + mean₁(diff)` under
    /// MLMC (degenerating to the coupled gate marginal while no level-0
    /// chunk has merged).
    pub(crate) fn current_ssf(&self) -> f64 {
        match self.estimator {
            EstimatorKind::Single => self.stats.mean(),
            EstimatorKind::Mlmc => {
                if self.level0.count() == 0 {
                    self.level1_gate.mean()
                } else {
                    self.level0.mean() + self.level1_diff.mean()
                }
            }
        }
    }

    /// The per-sample variance scale of the estimate: defined so that
    /// `sample_variance / n` is the variance of the point estimate under
    /// either estimator, keeping the LLN bound and the metrics schema
    /// uniform. For MLMC that is `n · (s₀²/n₀ + s₁²/n₁)` (a zero-count
    /// level drops out; with no level-0 chunks it reduces to the gate
    /// marginal's plain sample variance).
    pub(crate) fn current_sample_variance(&self) -> f64 {
        match self.estimator {
            EstimatorKind::Single => self.stats.variance(),
            EstimatorKind::Mlmc => {
                let (n0, n1) = (self.level0.count(), self.level1_diff.count());
                let level1 = if n0 == 0 {
                    &self.level1_gate
                } else {
                    &self.level1_diff
                };
                let term = |st: &RunningStats, n: u64| {
                    if n > 0 {
                        st.variance() / n as f64
                    } else {
                        0.0
                    }
                };
                (n0 + n1) as f64 * (term(&self.level0, n0) + term(level1, n1))
            }
        }
    }

    /// Samples folded across every stream.
    fn total_count(&self) -> u64 {
        match self.estimator {
            EstimatorKind::Single => self.stats.count(),
            EstimatorKind::Mlmc => self.level0.count() + self.level1_diff.count(),
        }
    }

    /// The LLN bound `Pr[|ŜSF − SSF| ≥ eps] ≤ Var(ŜSF)/eps²` of the merged
    /// prefix, capped at 1, given its [`current_sample_variance`]
    /// (`sample_variance`).
    ///
    /// [`current_sample_variance`]: Self::current_sample_variance
    pub(crate) fn lln_bound(&self, sample_variance: f64, eps: f64) -> f64 {
        let n = self.total_count();
        if n == 0 {
            return 1.0;
        }
        (sample_variance / (n as f64 * eps * eps)).min(1.0)
    }

    /// Whether the stopping rule may fire: MLMC additionally requires both
    /// levels sampled, so the variance terms it bounds are both live (the
    /// alternating pilot guarantees this from the second chunk on).
    pub(crate) fn levels_ready(&self) -> bool {
        match self.estimator {
            EstimatorKind::Single => true,
            EstimatorKind::Mlmc => self.level0.count() > 0 && self.level1_diff.count() > 0,
        }
    }

    /// Effective sample size `(Σw)²/Σw²` (0 when no runs folded).
    pub(crate) fn ess(&self) -> f64 {
        if self.w_sq_sum > 0.0 {
            self.w_sum * self.w_sum / self.w_sq_sum
        } else {
            0.0
        }
    }

    pub(crate) fn into_result(
        self,
        strategy: &str,
        stop: StopReason,
        trace_points: usize,
    ) -> CampaignResult {
        // Downsample boundaries to at most `trace_points`, always keeping
        // the final `(n, ŜSF)` point exactly once.
        let stride = self.boundaries.len().div_ceil(trace_points.max(1)).max(1);
        let mut trace: Vec<(usize, f64)> = self
            .boundaries
            .iter()
            .enumerate()
            .filter(|(i, _)| (i + 1) % stride == 0)
            .map(|(_, &b)| b)
            .collect();
        if trace.last() != self.boundaries.last() {
            if let Some(&last) = self.boundaries.last() {
                trace.push(last);
            }
        }
        let costs = MlmcEstimator::default();
        let mlmc = match self.estimator {
            EstimatorKind::Single => None,
            EstimatorKind::Mlmc => Some(MlmcSummary {
                n0: self.level0.count(),
                n1: self.level1_diff.count(),
                mean0: self.level0.mean(),
                var0: self.level0.variance(),
                mean1_diff: self.level1_diff.mean(),
                var1_diff: self.level1_diff.variance(),
                mean1_gate: self.level1_gate.mean(),
                mean1_rtl: self.level1_rtl.mean(),
                cost0: costs.cost0,
                cost1: costs.cost1,
                plan_ratio: self.plan_ratio,
                chunk_levels: self.chunk_levels.clone(),
            }),
        };
        CampaignResult {
            strategy: strategy.to_owned(),
            n: self.runs_merged(),
            ssf: self.current_ssf(),
            sample_variance: self.current_sample_variance(),
            ess: self.ess(),
            successes: self.successes,
            trace,
            class_counts: self.class_counts,
            analytic_runs: self.analytic_runs,
            rtl_runs: self.rtl_runs,
            attribution: self.attribution,
            stop,
            counters: self.counters,
            kernel_counters: self.kernel_counters,
            first_success: self.first_success,
            estimator: self.estimator,
            mlmc,
        }
    }
}

/// A campaign's checkpoint: the header that names the campaign, plus its
/// merged prefix. The driver folds into `state` in place, so writing a
/// checkpoint serializes the live merge state.
#[derive(Debug, PartialEq)]
pub(crate) struct CampaignCheckpoint {
    pub(crate) seed: u64,
    pub(crate) requested_runs: usize,
    pub(crate) chunk_runs: usize,
    pub(crate) strategy: String,
    pub(crate) kernel: CampaignKernel,
    pub(crate) state: MergeState,
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

/// The value under `key`.
fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing {key}"))
}

/// The `f64` stored as bits under `key`.
fn bits_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    f64_from_bits_str(field(v, key)?, key)
}

/// The Welford state stored under `what`.
fn stats_from_json(v: &JsonValue, what: &str) -> Result<RunningStats, String> {
    let v = field(v, what)?;
    let bits = |key| bits_field(v, key).map_err(|e| format!("{what}: {e}"));
    let count = get_u64(v, "count").map_err(|e| format!("{what}: {e}"))?;
    Ok(RunningStats::from_raw(
        count,
        bits("mean_bits")?,
        bits("m2_bits")?,
    ))
}

impl CampaignCheckpoint {
    /// Take the merge state saved at `path`, if the file exists. A file
    /// that cannot be read or parsed, or whose header names another
    /// campaign, is an error naming the path.
    pub(crate) fn resume(&mut self, path: &Path) -> Result<(), CampaignError> {
        let err = |reason: String| CampaignError::checkpoint(path, reason);
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(err(format!("cannot be read: {e}"))),
        };
        let saved =
            Self::from_json(&src).map_err(|e| err(format!("is not a valid checkpoint: {e}")))?;
        let header = |c: &Self| {
            [
                ("seed", c.seed.to_string()),
                ("requested runs", c.requested_runs.to_string()),
                ("chunk size", c.chunk_runs.to_string()),
                ("strategy", format!("{:?}", c.strategy)),
                ("kernel", format!("{:?}", c.kernel.as_arg())),
                ("estimator", format!("{:?}", c.state.estimator.as_arg())),
            ]
        };
        let mismatches: Vec<String> = header(&saved)
            .into_iter()
            .zip(header(self))
            .filter(|(saved, ours)| saved.1 != ours.1)
            .map(|((what, saved), (_, ours))| format!("{what} {saved} != {ours}"))
            .collect();
        if !mismatches.is_empty() {
            return Err(err(format!(
                "does not match this campaign ({}); delete it or point --checkpoint elsewhere",
                mismatches.join(", ")
            )));
        }
        (saved.state)
            .check_consistent(saved.chunk_runs, saved.requested_runs)
            .map_err(|e| err(format!("is not a valid checkpoint: {e}")))?;
        self.state = saved.state;
        Ok(())
    }

    /// Write the checkpoint crash-safely: temp file in the same
    /// directory, then an atomic rename over the target.
    pub(crate) fn save(&self, path: &Path) -> Result<(), CampaignError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| CampaignError::checkpoint(path, format!("cannot be written: {e}")))
    }

    /// Serialize to the on-disk JSON form: the body, then its checksum.
    pub(crate) fn to_json(&self) -> String {
        let body = self.body_json();
        format!(
            "{body},\n  \"checksum\": \"{:#018x}\"\n}}\n",
            checksum(&body)
        )
    }

    /// Every member but the checksum, without the closing brace.
    fn body_json(&self) -> String {
        use std::fmt::Write as _;
        let st = &self.state;
        let mut s = String::with_capacity(1024 + 32 * st.boundaries.len());
        s.push_str("{\n");
        let _ = writeln!(s, "  \"format\": \"{CHECKPOINT_FORMAT}\",");
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"requested_runs\": {},", self.requested_runs);
        let _ = writeln!(s, "  \"chunk_runs\": {},", self.chunk_runs);
        let _ = writeln!(s, "  \"strategy\": \"{}\",", json_escape(&self.strategy));
        let _ = writeln!(s, "  \"kernel\": \"{}\",", self.kernel.as_arg());
        let _ = writeln!(s, "  \"estimator\": \"{}\",", st.estimator.as_arg());
        match st.estimator {
            EstimatorKind::Mlmc => {
                let levels: Vec<String> = st.chunk_levels.iter().map(u8::to_string).collect();
                let _ = writeln!(
                    s,
                    "  \"mlmc\": {{\"plan_ratio_bits\": {}, \"level0\": {}, \
                     \"level1_diff\": {}, \"level1_gate\": {}, \"level1_rtl\": {}, \
                     \"chunk_levels\": [{}]}},",
                    st.plan_ratio.map_or("null".to_owned(), bits_str),
                    stats_json(&st.level0),
                    stats_json(&st.level1_diff),
                    stats_json(&st.level1_gate),
                    stats_json(&st.level1_rtl),
                    levels.join(", "),
                );
            }
            EstimatorKind::Single => s.push_str("  \"mlmc\": null,\n"),
        }
        let _ = writeln!(s, "  \"merged_chunks\": {},", st.merged_chunks);
        let _ = writeln!(s, "  \"stats\": {},", stats_json(&st.stats));
        let _ = writeln!(s, "  \"w_sum_bits\": {},", bits_str(st.w_sum));
        let _ = writeln!(s, "  \"w_sq_sum_bits\": {},", bits_str(st.w_sq_sum));
        let _ = writeln!(
            s,
            "  \"class_counts\": {{\"masked\": {}, \"memory_only\": {}, \"mixed\": {}}},",
            st.class_counts.masked, st.class_counts.memory_only, st.class_counts.mixed
        );
        let _ = writeln!(s, "  \"analytic_runs\": {},", st.analytic_runs);
        let _ = writeln!(s, "  \"rtl_runs\": {},", st.rtl_runs);
        let _ = writeln!(s, "  \"successes\": {},", st.successes);
        let attribution: Vec<String> = st
            .attribution
            .iter()
            .map(|(bit, w)| {
                let name = json_escape(&bit.dff_name());
                format!("{{\"bit\": \"{name}\", \"w_bits\": {}}}", bits_str(*w))
            })
            .collect();
        let _ = writeln!(s, "  \"attribution\": [{}],", attribution.join(", "));
        let boundaries: Vec<String> = st
            .boundaries
            .iter()
            .map(|(runs, mean)| format!("[{runs}, {}]", bits_str(*mean)))
            .collect();
        let _ = writeln!(s, "  \"boundaries\": [{}],", boundaries.join(", "));
        let _ = writeln!(
            s,
            "  \"counters\": {},",
            counters_json(&st.counters, &st.kernel_counters)
        );
        let first = st
            .first_success
            .map_or("null".to_owned(), |i| i.to_string());
        let _ = write!(s, "  \"first_success\": {first}");
        s
    }

    /// Deserialize the on-disk JSON form, rejecting foreign formats,
    /// internally inconsistent state and a body its checksum does not
    /// match. The checksum is compared with the body as this build writes
    /// it, so a file that parses to the state it was written from passes.
    pub(crate) fn from_json(src: &str) -> Result<Self, String> {
        let (ck, stored) = Self::parse(src)?;
        let body = checksum(&ck.body_json());
        if stored != body {
            return Err(format!(
                "checksum {stored:#018x} does not match its body ({body:#018x}): the file is corrupt"
            ));
        }
        Ok(ck)
    }

    /// [`from_json`](Self::from_json) without the checksum comparison:
    /// the checkpoint and the checksum the file stores.
    fn parse(src: &str) -> Result<(Self, u64), String> {
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
        let mut state = MergeState {
            estimator,
            ..MergeState::default()
        };
        match (estimator, field(&doc, "mlmc")?) {
            (EstimatorKind::Single, JsonValue::Null) => {}
            (EstimatorKind::Mlmc, m @ JsonValue::Obj(_)) => {
                state.plan_ratio = match field(m, "plan_ratio_bits")? {
                    JsonValue::Null => None,
                    v => Some(f64_from_bits_str(v, "plan_ratio")?),
                };
                state.level0 = stats_from_json(m, "level0")?;
                state.level1_diff = stats_from_json(m, "level1_diff")?;
                state.level1_gate = stats_from_json(m, "level1_gate")?;
                state.level1_rtl = stats_from_json(m, "level1_rtl")?;
                state.chunk_levels = field(m, "chunk_levels")?
                    .as_arr()
                    .ok_or("chunk_levels: expected an array")?
                    .iter()
                    .map(|e| {
                        e.as_u64()
                            .filter(|&x| x <= 1)
                            .map(|x| x as u8)
                            .ok_or_else(|| "invalid chunk_levels entry".to_owned())
                    })
                    .collect::<Result<Vec<u8>, String>>()?;
            }
            _ => {
                return Err(format!(
                    "per-level mlmc state does not fit the {} estimator",
                    estimator.as_arg()
                ))
            }
        }
        state.stats = stats_from_json(&doc, "stats")?;
        let counts_obj = field(&doc, "class_counts")?;
        state.class_counts = ClassCounts {
            masked: get_u64(counts_obj, "masked")? as usize,
            memory_only: get_u64(counts_obj, "memory_only")? as usize,
            mixed: get_u64(counts_obj, "mixed")? as usize,
        };
        let attribution = field(&doc, "attribution")?.as_arr();
        for entry in attribution.ok_or("attribution: expected an array")? {
            let name = entry
                .get("bit")
                .and_then(JsonValue::as_str)
                .ok_or("attribution entry missing bit name")?;
            let bit = MpuBit::all()
                .into_iter()
                .find(|b| b.dff_name() == name)
                .ok_or_else(|| format!("unknown register bit {name:?}"))?;
            state.attribution.insert(bit, bits_field(entry, "w_bits")?);
        }
        let boundaries = field(&doc, "boundaries")?.as_arr();
        for entry in boundaries.ok_or("boundaries: expected an array")? {
            let pair = (entry.as_arr())
                .filter(|p| p.len() == 2)
                .ok_or("boundary entry is not a pair")?;
            let runs = pair[0].as_u64().ok_or("boundary run count")? as usize;
            state
                .boundaries
                .push((runs, f64_from_bits_str(&pair[1], "boundary mean")?));
        }
        (state.counters, state.kernel_counters) = counters_from_json(field(&doc, "counters")?)?;
        state.first_success = match field(&doc, "first_success")? {
            JsonValue::Null => None,
            v => Some(v.as_u64().ok_or("first_success: expected an integer")?),
        };
        state.merged_chunks = get_u64(&doc, "merged_chunks")? as usize;
        if state.boundaries.len() != state.merged_chunks {
            return Err(format!(
                "corrupt cursor: {} boundaries for {} merged chunks",
                state.boundaries.len(),
                state.merged_chunks
            ));
        }
        state.analytic_runs = get_u64(&doc, "analytic_runs")? as usize;
        state.rtl_runs = get_u64(&doc, "rtl_runs")? as usize;
        state.successes = get_u64(&doc, "successes")? as usize;
        state.w_sum = bits_field(&doc, "w_sum_bits")?;
        state.w_sq_sum = bits_field(&doc, "w_sq_sum_bits")?;
        let stored = (field(&doc, "checksum")?.as_str())
            .and_then(|s| s.strip_prefix("0x"))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or("checksum: expected a 0x-prefixed hex string")?;
        let ck = Self {
            seed: get_u64(&doc, "seed")?,
            requested_runs: get_u64(&doc, "requested_runs")? as usize,
            chunk_runs: get_u64(&doc, "chunk_runs")? as usize,
            strategy: (field(&doc, "strategy")?.as_str())
                .ok_or("strategy: expected a string")?
                .to_owned(),
            kernel,
            state,
        };
        Ok((ck, stored))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            state: MergeState {
                estimator: EstimatorKind::Mlmc,
                stats,
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
                plan_ratio: Some(0.1 + 0.2),
                chunk_levels: vec![1, 0, 1, 0, 0, 0, 1],
                class_counts: ClassCounts {
                    masked: 100,
                    memory_only: 20,
                    mixed: 7,
                },
                analytic_runs: 20,
                rtl_runs: 7,
                successes: 5,
                attribution,
                w_sum: 1234.5678901234567,
                w_sq_sum: 9.87654321e-12,
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
                boundaries: vec![(512, 0.001953125), (1024, 0.1 / 3.0), (1536, 0.25)],
                merged_chunks: 3,
            },
        };
        let round = CampaignCheckpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(round, ck);
        let (st, round) = (&ck.state, &round.state);
        assert_eq!(
            round.plan_ratio.unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits(),
            "plan ratio must round-trip bit-exactly"
        );
        let (_, d0, _) = round.level1_diff.to_raw();
        assert_eq!(d0.to_bits(), (-1.0f64 / 3.0).to_bits());
        // Bit-exactness of the Welford state, not just PartialEq.
        let (n0, m0, s0) = st.stats.to_raw();
        let (n1, m1, s1) = round.stats.to_raw();
        assert_eq!(
            (n0, m0.to_bits(), s0.to_bits()),
            (n1, m1.to_bits(), s1.to_bits())
        );
        assert_eq!(round.w_sum.to_bits(), st.w_sum.to_bits());
        for ((_, a), (_, b)) in round.boundaries.iter().zip(&st.boundaries) {
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

    /// The `xlmc-checkpoint-v4` bytes are pinned by two files written by an
    /// earlier build: a single-estimator campaign after 4 chunks and an
    /// MLMC campaign in the middle of its pilot. Both parse and serialize
    /// back to the identical bytes (`tests/checkpoint_format.rs` resumes
    /// them).
    #[test]
    fn pinned_checkpoints_reserialize_to_identical_bytes() {
        for (name, src) in [
            (
                "single",
                include_str!("../../../tests/fixtures/checkpoint_single_4_chunks.json"),
            ),
            (
                "mlmc",
                include_str!("../../../tests/fixtures/checkpoint_mlmc_mid_pilot.json"),
            ),
        ] {
            let ck = CampaignCheckpoint::from_json(src).unwrap();
            assert_eq!(ck.state.estimator.as_arg(), name);
            assert_eq!(ck.to_json(), src, "{name}");
        }
    }

    /// Both pinned files carry consistent redundancy; a count, a boundary
    /// or the last boundary's estimate changed alone is refused.
    #[test]
    fn checkpoint_consistency_catches_single_field_changes() {
        let single = include_str!("../../../tests/fixtures/checkpoint_single_4_chunks.json");
        let mlmc = include_str!("../../../tests/fixtures/checkpoint_mlmc_mid_pilot.json");
        for src in [single, mlmc] {
            let ck = CampaignCheckpoint::from_json(src).unwrap();
            assert_eq!(
                ck.state.check_consistent(ck.chunk_runs, ck.requested_runs),
                Ok(())
            );
        }
        for (from, to, what) in [
            ("\"masked\": 935", "\"masked\": 934", "class counts"),
            ("[1536, ", "[1535, ", "boundary 2 ends at run 1535"),
            ("\"count\": 2048", "\"count\": 2049", "sample count"),
            (
                "\"rtl_runs\": 300",
                "\"rtl_runs\": 301",
                "analytic/rtl split",
            ),
            (
                "\"masked\": 935",
                "\"masked\": 18446744073709551615",
                "class counts",
            ),
            (
                "\"soc_restores\": 277",
                "\"soc_restores\": 276",
                "resident-system",
            ),
            (
                "[2048, \"0x3f90000000000001\"]",
                "[2048, \"0x3f90000000000000\"]",
                "last boundary",
            ),
        ] {
            assert!(single.contains(from), "{from}");
            let (ck, _) = CampaignCheckpoint::parse(&single.replacen(from, to, 1)).unwrap();
            let err = ck
                .state
                .check_consistent(ck.chunk_runs, ck.requested_runs)
                .unwrap_err();
            assert!(err.contains(what), "{what}: {err}");
        }
    }

    /// A value changed alone, even one the file stores only once, no
    /// longer matches the checksum; a checksum changed alone no longer
    /// matches the body; a v3 file, which has none, is a foreign format.
    #[test]
    fn checkpoint_checksum_catches_any_changed_value() {
        let single = include_str!("../../../tests/fixtures/checkpoint_single_4_chunks.json");
        let (ck, stored) = CampaignCheckpoint::parse(single).unwrap();
        assert_eq!(stored, checksum(&ck.body_json()));
        assert!(single.starts_with(&ck.body_json()));
        let m2 = "\"m2_bits\": \"0x";
        let at = single.find(m2).unwrap() + m2.len();
        let stored_hex = format!("{stored:016x}");
        for (from, to) in [
            (&single[at..at + 4], "4040"),
            ("\"successes\": 32", "\"successes\": 31"),
            (stored_hex.as_str(), "0123456789abcdef"),
        ] {
            assert!(single.contains(from), "{from}");
            let err = CampaignCheckpoint::from_json(&single.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains("checksum"), "{from}: {err}");
        }
        let v3 = single.replace(CHECKPOINT_FORMAT, "xlmc-checkpoint-v3");
        let err = CampaignCheckpoint::from_json(&v3).unwrap_err();
        assert!(err.contains("unsupported checkpoint format"), "{err}");
    }

    /// The per-level MLMC object is present exactly when the estimator is
    /// MLMC, and the boundary list covers every merged chunk.
    #[test]
    fn checkpoint_rejects_inconsistent_state() {
        let single = include_str!("../../../tests/fixtures/checkpoint_single_4_chunks.json");
        let mlmc = include_str!("../../../tests/fixtures/checkpoint_mlmc_mid_pilot.json");
        let as_mlmc = single.replace("\"estimator\": \"single\"", "\"estimator\": \"mlmc\"");
        let err = CampaignCheckpoint::from_json(&as_mlmc).unwrap_err();
        assert!(err.contains("mlmc estimator"), "{err}");
        let as_single = mlmc.replace("\"estimator\": \"mlmc\"", "\"estimator\": \"single\"");
        let err = CampaignCheckpoint::from_json(&as_single).unwrap_err();
        assert!(err.contains("single estimator"), "{err}");
        let short = single.replace("\"merged_chunks\": 4", "\"merged_chunks\": 5");
        let err = CampaignCheckpoint::from_json(&short).unwrap_err();
        assert!(err.contains("corrupt cursor"), "{err}");
    }
}
