//! RTL fast-forward: the campaign-time accelerations of the memo-miss path.
//!
//! A conclusion-memo miss used to pay the full RTL tail: restore the nearest
//! golden checkpoint, `step()` up to the injection cycle, write the errors
//! back, then simulate to halt. This module removes both halves of that
//! cost without changing a single result bit:
//!
//! * [`RtlFastForward`] — a per-worker **exact-cycle snapshot cache**:
//!   campaigns revisit a small set of injection cycles `t ≤ t_max`, so the
//!   system state at *exactly* the start of cycle `te + 1` (injection cycle
//!   executed, fault not yet applied) is kept per visited `te`, turning
//!   restore-and-replay into a single `restore_from`. It also carries the
//!   **golden-reconvergence early exit**: the paper's Observation 3 says
//!   most injected errors die quickly or sit silently in memory-type state,
//!   which means the faulty trajectory usually re-joins the golden trace
//!   long before halt. The resume loop compares the cheap per-cycle
//!   [`Soc::arch_fingerprint`] against the golden run's recorded track and,
//!   on a match *confirmed by an exact state compare* (which does include
//!   RAM), concludes immediately with the golden verdict — determinism
//!   makes everything after a state match a replay of the golden run.
//!
//! * [`ConclusionMemo`] — the `(te, faulty_bits) → verdict` memo, one per
//!   campaign worker. The verdict is a pure function of its key (the
//!   hardening filter consumes RNG *before* the key is formed), so private
//!   per-worker memos are result-invariant. The key is the exact
//!   [`ConclusionKey`] — four words, no hash stands in for it — so entries
//!   cannot collide and lookups never allocate.
//!
//! Each memo entry is also stamped with the chunk that last probed it,
//! which is all the chunk-local [`crate::trace::CampaignCounters`] model
//! needs (a key's first probe in a chunk is that chunk's miss), so the
//! counters stay kernel/thread-invariant without a second key set; the
//! schedule-dependent fast-forward counters live in [`FastForwardStats`]
//! and surface through the metrics JSON, never through `CampaignResult`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use crate::flow::{Concluded, DffMask};
use crate::metrics::LatencyHist;
use crate::model::Evaluation;
use xlmc_soc::{MpuBit, Soc};

/// LRU bound on the exact-cycle snapshot cache (per worker), as a count.
/// Snapshots share their unwritten RAM pages with the golden checkpoints,
/// so a snapshot costs the pages the golden run wrote since its checkpoint
/// rather than a RAM image; the bound is the one a 4 MiB budget of full
/// images gave, kept so evictions and [`FastForwardStats`] stay put.
const MAX_SNAPSHOTS: usize = 127;
/// How many cycles past the injection the reconvergence watch keeps
/// fingerprinting before giving up: transient pipeline/status divergence
/// either decays within a few cycles of the flip or (a spurious trap, a
/// re-latched sticky) not at all, so a bounded watch captures the wins
/// without paying a per-cycle hash on runs that never rejoin.
const WATCH_WINDOW: u64 = 64;

/// Counters of the fast-forward layer.
///
/// These are **schedule-dependent** (cache warmth and early exits vary with
/// thread count and chunk order), so they are reported through the metrics
/// JSON only — never through `CampaignResult`, whose fields are all
/// kernel/thread-invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// Whether the layer was enabled.
    pub enabled: bool,
    /// RTL resumes performed (memo misses reaching the RTL path).
    pub rtl_resumes: u64,
    /// Resumes positioned by a single snapshot restore.
    pub checkpoint_cache_hits: u64,
    /// Resumes that paid restore-and-replay (and then seeded the cache).
    pub checkpoint_cache_misses: u64,
    /// Snapshots evicted by the byte-budget LRU bound.
    pub checkpoint_cache_evictions: u64,
    /// Resumes concluded by golden reconvergence before halt.
    pub early_exits: u64,
    /// Fingerprint matches rejected by the exact state compare.
    pub confirm_failures: u64,
    /// Simulation cycles skipped by early exits.
    pub cycles_skipped: u64,
}

impl FastForwardStats {
    /// Accumulate another worker's counters.
    pub fn add(&mut self, other: &FastForwardStats) {
        self.enabled |= other.enabled;
        self.rtl_resumes += other.rtl_resumes;
        self.checkpoint_cache_hits += other.checkpoint_cache_hits;
        self.checkpoint_cache_misses += other.checkpoint_cache_misses;
        self.checkpoint_cache_evictions += other.checkpoint_cache_evictions;
        self.early_exits += other.early_exits;
        self.confirm_failures += other.confirm_failures;
        self.cycles_skipped += other.cycles_skipped;
    }

    /// Fraction of resumes positioned by a snapshot restore.
    pub fn checkpoint_hit_rate(&self) -> f64 {
        let total = self.checkpoint_cache_hits + self.checkpoint_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.checkpoint_cache_hits as f64 / total as f64
        }
    }

    /// Fraction of resumes concluded by golden reconvergence.
    pub fn early_exit_rate(&self) -> f64 {
        if self.rtl_resumes == 0 {
            0.0
        } else {
            self.early_exits as f64 / self.rtl_resumes as f64
        }
    }
}

#[derive(Debug)]
struct Snapshot {
    soc: Soc,
    last_used: u64,
}

/// Per-worker fast-forward state: the exact-cycle snapshot cache, the
/// resident work/confirm systems and the lazily computed golden verdict.
///
/// Like [`crate::flow::FlowScratch`] (which owns one), an instance is only
/// valid against one evaluation; the campaign engine keeps one per worker.
#[derive(Debug)]
pub struct RtlFastForward {
    enabled: bool,
    snapshots: HashMap<u64, Snapshot>,
    /// The resident system every resume mutates (restored, never cloned).
    work: Option<Soc>,
    /// Scratch system for the exact reconvergence confirm.
    confirm: Option<Soc>,
    /// `goal.succeeded(golden.final_soc)`, computed on first early exit.
    golden_verdict: Option<bool>,
    tick: u64,
    stats: FastForwardStats,
    /// Wall-clock latency of each resume's positioning phase (snapshot
    /// restore on a hit, checkpoint restore + replay on a miss) — pure
    /// telemetry, harvested per chunk by the campaign engine.
    restore_hist: LatencyHist,
    /// The bits of the pattern a conclusion-memo miss evaluates (a reused
    /// buffer).
    pub(crate) bits: Vec<MpuBit>,
}

impl Default for RtlFastForward {
    fn default() -> Self {
        Self::new(true)
    }
}

impl RtlFastForward {
    /// A fresh fast-forward state; `enabled = false` degrades every resume
    /// to the reference restore-and-replay, run-to-halt path (bit-identical
    /// results, no acceleration).
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            snapshots: HashMap::new(),
            work: None,
            confirm: None,
            golden_verdict: None,
            tick: 0,
            stats: FastForwardStats {
                enabled,
                ..FastForwardStats::default()
            },
            restore_hist: LatencyHist::default(),
            bits: Vec::new(),
        }
    }

    /// Enable or disable the layer (the snapshot cache is dropped so a
    /// re-enable starts cold).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.stats.enabled = enabled;
        if !enabled {
            self.snapshots.clear();
        }
    }

    /// Whether the layer is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The counters accumulated by resumes on this state.
    pub fn stats(&self) -> FastForwardStats {
        self.stats
    }

    /// Drain the positioning-phase latency histogram accumulated since
    /// the last call (the campaign engine harvests this per chunk into
    /// the chunk partial's [`crate::metrics::LatencyShard`]).
    pub fn take_restore_latency(&mut self) -> LatencyHist {
        std::mem::take(&mut self.restore_hist)
    }

    /// The full RTL tail of one conclusion: position the work system at the
    /// start of cycle `te + 1` (snapshot restore on a cache hit, reference
    /// restore-and-replay on a miss), write the errors back, and simulate to
    /// completion — exiting early with the golden verdict when the faulty
    /// state provably re-joins the golden trajectory.
    pub(crate) fn resume(&mut self, eval: &Evaluation, te: u64, faulty_bits: &[MpuBit]) -> bool {
        self.stats.rtl_resumes += 1;
        let golden = &eval.golden;
        let checkpoint = golden.nearest_checkpoint(te);
        if self.work.is_none() {
            self.work = Some(checkpoint.clone());
        }
        let work = self.work.as_mut().expect("work slot just filled");

        let t_position = Instant::now();
        let mut positioned = false;
        if self.enabled {
            if let Some(snap) = self.snapshots.get_mut(&te) {
                self.tick += 1;
                snap.last_used = self.tick;
                work.restore_from(&snap.soc);
                self.stats.checkpoint_cache_hits += 1;
                positioned = true;
            }
        }
        if !positioned {
            work.restore_from(checkpoint);
            while work.cycle < te {
                work.step();
            }
            // Execute the injection cycle; the snapshot is taken pre-fault
            // so every error pattern at this `te` starts from it.
            work.step();
            if self.enabled {
                self.stats.checkpoint_cache_misses += 1;
                if self.snapshots.len() >= MAX_SNAPSHOTS {
                    if let Some(&oldest) = self
                        .snapshots
                        .iter()
                        .min_by_key(|(_, s)| s.last_used)
                        .map(|(te, _)| te)
                    {
                        self.snapshots.remove(&oldest);
                        self.stats.checkpoint_cache_evictions += 1;
                    }
                }
                self.tick += 1;
                self.snapshots.insert(
                    te,
                    Snapshot {
                        soc: work.clone(),
                        last_used: self.tick,
                    },
                );
            }
        }
        self.restore_hist.record(t_position.elapsed().as_secs_f64());

        for &b in faulty_bits {
            work.mpu.toggle_bit(b);
        }

        // Run to completion. While watching, compare the per-cycle
        // fingerprint against the golden track: a confirmed match means the
        // remaining trajectory *is* the golden one (stepping is
        // deterministic), so the verdict is the golden verdict. The early
        // exit is only sound when the golden run actually halted — a capped
        // golden run has no recorded trajectory past its cap, while the
        // faulty run may simulate further.
        //
        // Watching is itself a pure scheduling choice (a missed match only
        // means running to halt like the reference), so it is gated to where
        // it can pay: a flipped MPU *config* bit persists until software
        // rewrites the configuration — the fingerprint covers the config, so
        // such a resume can never rejoin the golden track — and transient
        // pipeline/status divergence either decays within a few cycles or
        // not at all. Config-bit error sets are not watched, and the watch
        // stops [`WATCH_WINDOW`] cycles past the injection.
        let goal = eval.workload.goal;
        let mut watch =
            self.enabled && golden.final_soc.halted() && faulty_bits.iter().all(|b| !b.is_config());
        let watch_limit = te.saturating_add(WATCH_WINDOW);
        while !work.halted() && work.cycle < eval.max_cycles {
            if watch && work.cycle > watch_limit {
                watch = false;
            }
            if watch
                && work.cycle < golden.cycles
                && golden.fingerprints[work.cycle as usize] == work.arch_fingerprint()
            {
                if self.confirm.is_none() {
                    self.confirm = Some(golden.nearest_checkpoint(work.cycle).clone());
                }
                let confirm = self.confirm.as_mut().expect("confirm slot just filled");
                confirm.restore_from(golden.nearest_checkpoint(work.cycle));
                while confirm.cycle < work.cycle {
                    confirm.step();
                }
                if *confirm == *work {
                    self.stats.early_exits += 1;
                    self.stats.cycles_skipped += golden.cycles - work.cycle;
                    return *self
                        .golden_verdict
                        .get_or_insert_with(|| goal.succeeded(&golden.final_soc));
                }
                // Fingerprint collision (RAM or a hash alias diverges): it
                // would keep colliding every cycle, so stop watching and
                // fall back to the plain run-to-halt for this resume.
                self.stats.confirm_failures += 1;
                watch = false;
            }
            work.step();
        }
        goal.succeeded(work)
    }
}

/// The run-to-halt reference verdict of one `(T_e, faulty bits)` error set:
/// restore the nearest golden checkpoint, replay to the injection cycle,
/// write the errors back, and simulate to completion with every
/// acceleration disabled. This is the oracle the fast-forward layer — and
/// the multilevel estimator's cross-level consistency tests — are pinned
/// against.
pub fn reference_verdict(eval: &Evaluation, te: u64, faulty_bits: &[MpuBit]) -> bool {
    RtlFastForward::new(false).resume(eval, te, faulty_bits)
}

/// The key of the [`ConclusionMemo`]: the injection cycle and the
/// post-hardening registers as a [`DffMask`], so the key separates exactly
/// the patterns the verdict depends on.
pub(crate) type ConclusionKey = (u64, DffMask);

/// Word-multiply hasher for keys made of a few `u64` words (the
/// [`ConclusionKey`]): a rotate-xor-multiply fold per word, with the high
/// half folded down at the end so the table index sees every word.
#[derive(Debug, Default)]
pub(crate) struct WordHasher(u64);

/// The [`std::hash::BuildHasher`] of [`WordHasher`].
pub(crate) type WordHash = BuildHasherDefault<WordHasher>;

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// The stamp of an entry no counted probe has touched yet.
const UNSTAMPED: u32 = u32::MAX;

/// A worker's `(te, faulty_bits) → verdict` conclusion memo, each entry
/// stamped with the chunk that last probed it.
///
/// The verdict is a pure function of the key (RNG is consumed before the
/// key is formed), so every worker keeping its own memo yields the same
/// campaign results as any sharing would; a worker only recomputes the
/// misses another worker already paid. The stamp makes the memo serve the
/// chunk-local counter model too: a probe is the chunk's first for its key
/// when the entry is fresh or its stamp names another chunk, and the
/// per-chunk totals that flag feeds depend only on the multiset of keys in
/// the chunk — not on the order lanes are concluded in, nor on which
/// entries earlier chunks left behind.
#[derive(Debug, Default)]
pub struct ConclusionMemo {
    map: HashMap<ConclusionKey, (Concluded, u32), WordHash>,
    hits: u64,
    misses: u64,
}

impl ConclusionMemo {
    /// The verdict of `key`, computed by `conclude` on a miss, and whether
    /// this is the first probe of `key` in chunk `chunk`. Probes with
    /// `chunk` `None` (the MLMC level-1 twin, solo replays) feed no
    /// counter: they leave stamps alone and report `false`.
    pub(crate) fn get_or_conclude(
        &mut self,
        key: ConclusionKey,
        chunk: Option<u32>,
        conclude: impl FnOnce() -> Concluded,
    ) -> (Concluded, bool) {
        let stamp = chunk.map_or(UNSTAMPED, |c| {
            assert_ne!(c, UNSTAMPED, "chunk index out of stamp range");
            c
        });
        match self.map.entry(key) {
            Entry::Occupied(e) => {
                self.hits += 1;
                let (verdict, last) = e.into_mut();
                let first = stamp != UNSTAMPED && *last != stamp;
                if first {
                    *last = stamp;
                }
                (*verdict, first)
            }
            Entry::Vacant(e) => {
                self.misses += 1;
                let verdict = conclude();
                e.insert((verdict, stamp));
                (verdict, stamp != UNSTAMPED)
            }
        }
    }

    /// Number of concluded patterns held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses)` over every probe of this memo.
    pub(crate) fn probe_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::StrikeClass;

    /// The key of the registers with DFF indices `regs` at cycle `te`.
    fn key_of(te: u64, regs: &[usize]) -> ConclusionKey {
        (te, regs.iter().copied().collect())
    }

    fn concluded(success: bool) -> Concluded {
        Concluded {
            success,
            class: StrikeClass::Mixed,
            analytic: false,
        }
    }

    /// Probe `key` for chunk `chunk`, concluding `success` on a miss;
    /// `(verdict success, first in chunk, whether it was computed)`.
    fn probe(
        memo: &mut ConclusionMemo,
        key: ConclusionKey,
        chunk: Option<u32>,
        success: bool,
    ) -> (bool, bool, bool) {
        let mut computed = false;
        let (c, first) = memo.get_or_conclude(key, chunk, || {
            computed = true;
            concluded(success)
        });
        (c.success, first, computed)
    }

    #[test]
    fn memo_round_trips_and_verifies_exact_keys() {
        let mut memo = ConclusionMemo::default();
        let key = key_of(5, &[170, 0]);
        assert_eq!(probe(&mut memo, key, Some(0), true), (true, true, true));
        assert_eq!(probe(&mut memo, key, Some(0), false), (true, false, false));
        // A different pattern at the same cycle is a separate entry.
        let other = key_of(5, &[19]);
        assert_eq!(probe(&mut memo, other, Some(0), false), (false, true, true));
        assert_eq!(probe(&mut memo, key, Some(0), false), (true, false, false));
        assert_eq!(memo.len(), 2);
        // The next chunk's first probe of a held key is a first again, but
        // never a recompute.
        assert_eq!(probe(&mut memo, key, Some(1), false), (true, true, false));
        assert_eq!(probe(&mut memo, key, Some(1), false), (true, false, false));
        // Uncounted probes neither report nor move a stamp.
        assert_eq!(probe(&mut memo, other, None, true), (false, false, false));
        assert_eq!(probe(&mut memo, other, Some(1), true), (false, true, false));
        let fresh = key_of(6, &[0]);
        assert_eq!(probe(&mut memo, fresh, None, true), (true, false, true));
        assert_eq!(probe(&mut memo, fresh, Some(1), true), (true, true, false));
        assert_eq!(memo.len(), 3);
        assert_eq!(memo.probe_stats(), (7, 3));
    }

    #[test]
    fn conclusion_key_separates_te_and_bit_patterns() {
        let mut memo = ConclusionMemo::default();
        let a = [21];
        let b = [63, 64];
        assert_ne!(key_of(3, &a), key_of(3, &b));
        assert_ne!(key_of(3, &a), key_of(4, &a));
        assert_ne!(key_of(3, &[]), key_of(3, &a));
        probe(&mut memo, key_of(3, &a), Some(0), true);
        assert!(
            probe(&mut memo, key_of(3, &b), Some(0), false).2,
            "other pattern"
        );
        assert!(
            probe(&mut memo, key_of(4, &a), Some(0), false).2,
            "other cycle"
        );
        assert!(
            probe(&mut memo, key_of(3, &[]), Some(0), false).2,
            "empty pattern"
        );
        // The key is the set: the one order a path hands a set over in and
        // any other order name the same entry.
        let ab = [0, 170];
        let ba = [170, 0];
        assert_eq!(key_of(3, &ab), key_of(3, &ba));
        assert!(probe(&mut memo, key_of(3, &ab), Some(0), true).2);
        assert!(!probe(&mut memo, key_of(3, &ba), Some(0), false).2);
    }

    #[test]
    fn snapshot_cache_respects_the_lru_bound() {
        // Pure cache-bookkeeping test: drive the LRU logic through stats.
        const { assert!(MAX_SNAPSHOTS >= 8, "budget must hold a useful working set") };
        let ff = RtlFastForward::default();
        assert!(ff.enabled());
        assert_eq!(ff.stats().rtl_resumes, 0);
        let off = RtlFastForward::new(false);
        assert!(!off.enabled());
        assert!(!off.stats().enabled);
    }

    #[test]
    fn stats_accumulate_and_expose_rates() {
        let mut total = FastForwardStats::default();
        let worker = FastForwardStats {
            enabled: true,
            rtl_resumes: 10,
            checkpoint_cache_hits: 6,
            checkpoint_cache_misses: 2,
            checkpoint_cache_evictions: 1,
            early_exits: 5,
            confirm_failures: 1,
            cycles_skipped: 1234,
        };
        total.add(&worker);
        total.add(&worker);
        assert!(total.enabled);
        assert_eq!(total.rtl_resumes, 20);
        assert_eq!(total.cycles_skipped, 2468);
        assert!((total.checkpoint_hit_rate() - 0.75).abs() < 1e-12);
        assert!((total.early_exit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(FastForwardStats::default().checkpoint_hit_rate(), 0.0);
        assert_eq!(FastForwardStats::default().early_exit_rate(), 0.0);
    }

    /// A flipped pipeline/status register is overwritten by the design
    /// within a few cycles: the watched resume must detect the rejoin,
    /// pass the exact confirm and conclude with the golden verdict —
    /// matching the disabled reference resume bit for bit.
    #[test]
    fn transient_pipeline_flips_reconverge_and_early_exit() {
        let eval = Evaluation::new(xlmc_soc::workloads::illegal_write()).unwrap();
        let mut ff = RtlFastForward::default();
        let mut reference = RtlFastForward::new(false);
        let transient = [
            MpuBit::PipeAddr(0),
            MpuBit::PipeAddr(9),
            MpuBit::PipeKind(0),
            MpuBit::PipeUser,
            MpuBit::PipeValid,
            MpuBit::Violation,
        ];
        for te in [eval.target_cycle - 12, eval.target_cycle - 5] {
            for bit in transient {
                let fast = ff.resume(&eval, te, &[bit]);
                let slow = reference.resume(&eval, te, &[bit]);
                assert_eq!(fast, slow, "{bit:?} at te {te}");
            }
        }
        let stats = ff.stats();
        assert!(
            stats.early_exits > 0,
            "no transient flip reconverged to the golden track: {stats:?}"
        );
        assert!(stats.cycles_skipped > 0);
        assert!(stats.early_exit_rate() > 0.0);
        assert_eq!(reference.stats().early_exits, 0);
    }
}
