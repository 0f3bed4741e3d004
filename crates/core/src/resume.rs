//! RTL resume: the campaign-time acceleration of the memo-miss path.
//!
//! A conclusion-memo miss used to pay the full RTL tail: restore the nearest
//! golden checkpoint, `step()` up to the injection cycle, write the errors
//! back, then simulate the whole system to halt (paper §5.1). This module
//! shortens that tail without changing a single result bit:
//!
//! * [`RtlResume`] — MPU first, then a per-worker **exact-cycle
//!   snapshot cache**. The faulty MPU steps alone on the golden run's
//!   recorded stimulus until the rest of the system could see its error
//!   ([`xlmc_soc::GoldenRun::step_faulty_mpu`], which jumps over idle
//!   cycles); an error that reconverges first, or is still private to the
//!   MPU when the golden run halts, takes the golden verdict with no
//!   system simulation at all.
//!   Otherwise the golden system state at *exactly* the start of the stop
//!   cycle `c` is kept per visited `c`, turning restore-and-replay into a
//!   single `restore_from`. The faulty tail then runs to halt;
//!   [`reference_verdict`] is the uncached whole-system oracle it is tested
//!   against.
//!
//! * [`ConclusionMemo`] — the `(te, faulty_bits) → verdict` memo, one per
//!   campaign worker. The verdict is a pure function of its key (the
//!   hardening filter consumes RNG *before* the key is formed), so private
//!   per-worker memos are result-invariant. The key is the exact
//!   [`ConclusionKey`] — four words, no hash stands in for it — so entries
//!   cannot collide and lookups never allocate. Entries sit in a slab of
//!   slots that never move, so the compiled kernel's outcome memo keeps a
//!   slot number per settled strike group and recalls it without hashing.
//!
//! Each memo entry is also stamped with the chunk whose fold last counted
//! it, which is all the chunk-local [`crate::trace::CampaignCounters`]
//! model needs (a key's first run in a chunk is that chunk's miss), so the
//! counters stay kernel/thread-invariant without a second key set; the
//! schedule-dependent cache counters live in [`ResumeStats`] and
//! surface through the metrics JSON, never through `CampaignResult`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::time::Instant;

use crate::flow::{Concluded, DffMask};
use crate::metrics::LatencyHist;
use crate::model::Evaluation;
use xlmc_soc::golden::MpuStop;
use xlmc_soc::{MpuBit, Soc};

/// LRU bound on the exact-cycle snapshot cache (per worker), as a count.
/// Snapshots share their unwritten RAM pages with the golden checkpoints,
/// so a snapshot costs the pages the golden run wrote since its checkpoint
/// rather than a RAM image; the bound is the one a 4 MiB budget of full
/// images gave, kept so evictions and [`ResumeStats`] stay put.
const MAX_SNAPSHOTS: usize = 127;

/// Counters of the snapshot cache.
///
/// These are **schedule-dependent** (cache warmth varies with thread count
/// and chunk order), so they are reported through the metrics JSON only —
/// never through `CampaignResult`, whose fields are all
/// kernel/thread-invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// RTL resumes performed (memo misses reaching the RTL path).
    pub rtl_resumes: u64,
    /// Resumes the MPU settled alone, with the golden verdict: the error
    /// reconverged before the rest of the system could see it, or was
    /// still private to the MPU when the golden run halted.
    pub module_resolved: u64,
    /// Cycles the faulty MPU was stepped alone, over every resume.
    pub mpu_steps: u64,
    /// Idle cycles the MPU-only stepping jumped over instead of stepping.
    pub idle_skipped: u64,
    /// Resumes positioned by a single snapshot restore.
    pub checkpoint_cache_hits: u64,
    /// Resumes that paid restore-and-replay (and then seeded the cache).
    pub checkpoint_cache_misses: u64,
    /// Snapshots evicted by the LRU bound.
    pub checkpoint_cache_evictions: u64,
}

impl ResumeStats {
    /// Accumulate another worker's counters.
    pub fn add(&mut self, other: &ResumeStats) {
        self.rtl_resumes += other.rtl_resumes;
        self.module_resolved += other.module_resolved;
        self.mpu_steps += other.mpu_steps;
        self.idle_skipped += other.idle_skipped;
        self.checkpoint_cache_hits += other.checkpoint_cache_hits;
        self.checkpoint_cache_misses += other.checkpoint_cache_misses;
        self.checkpoint_cache_evictions += other.checkpoint_cache_evictions;
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
}

#[derive(Debug)]
struct Snapshot {
    soc: Soc,
    last_used: u64,
}

/// Per-worker resume state: the exact-cycle snapshot cache and the
/// resident work system, which restores from a snapshot by overwriting
/// the RAM pages it owns in place, so a warm resume allocates nothing.
///
/// Like [`crate::flow::FlowScratch`] (which owns one), an instance is only
/// valid against one evaluation; the campaign engine keeps one per worker.
#[derive(Debug, Default)]
pub struct RtlResume {
    snapshots: HashMap<u64, Snapshot, WordHash>,
    /// The resident system every resume mutates (restored, never cloned).
    work: Option<Soc>,
    tick: u64,
    stats: ResumeStats,
    /// Wall-clock latency of each resume's positioning phase (snapshot
    /// restore on a hit, checkpoint restore + replay on a miss) — pure
    /// telemetry, harvested per chunk by the campaign engine.
    restore_hist: LatencyHist,
    /// The bits of the pattern a conclusion-memo miss evaluates (a reused
    /// buffer).
    pub(crate) bits: Vec<MpuBit>,
}

impl RtlResume {
    /// The counters accumulated by resumes on this state.
    pub fn stats(&self) -> ResumeStats {
        self.stats
    }

    /// Drain the positioning-phase latency histogram accumulated since
    /// the last call (the campaign engine harvests this per chunk into
    /// the chunk partial's [`crate::metrics::LatencyShard`]).
    pub fn take_restore_latency(&mut self) -> LatencyHist {
        std::mem::take(&mut self.restore_hist)
    }

    /// The RTL tail of one conclusion, MPU first: the faulty MPU steps
    /// alone from the start of cycle `te + 1` until the rest of the system
    /// can see its error
    /// ([`xlmc_soc::GoldenRun::step_faulty_mpu`]). An error that
    /// reconverges first takes the golden verdict, and so does one still
    /// private to the MPU at the end of a golden run that halted: the rest
    /// of the system then ran and halted exactly as in the golden run, and
    /// the goal predicate reads memory and the core, never the MPU.
    /// Otherwise the work system is positioned at the stop cycle `c`
    /// (snapshot restore on a cache hit, restore-and-replay on a miss),
    /// takes the faulty MPU, and runs to completion. The end of a golden
    /// run that hit the cycle cap counts as such a `c`.
    pub(crate) fn resume(&mut self, eval: &Evaluation, te: u64, faulty_bits: &[MpuBit]) -> bool {
        self.stats.rtl_resumes += 1;
        let golden = &eval.golden;
        let start = te + 1;
        let mut mpu = golden
            .mpu_states
            .get(start as usize)
            .copied()
            .unwrap_or(golden.final_soc.mpu);
        for &b in faulty_bits {
            mpu.toggle_bit(b);
        }
        let (stop, skipped) = golden.step_faulty_mpu(&mut mpu, start, golden.cycles, |_, _| {});
        let c = match stop {
            MpuStop::Reconverged(c) | MpuStop::Visible(c) | MpuStop::End(c) => c,
        };
        self.stats.mpu_steps += c - start - skipped;
        self.stats.idle_skipped += skipped;
        if !matches!(stop, MpuStop::Visible(_)) && golden.final_soc.halted() {
            self.stats.module_resolved += 1;
            return eval.workload.goal.succeeded(&golden.final_soc);
        }
        let checkpoint = golden.nearest_checkpoint(c);
        let work = self.work.get_or_insert_with(|| checkpoint.clone());

        let t_position = Instant::now();
        if let Some(snap) = self.snapshots.get_mut(&c) {
            self.tick += 1;
            snap.last_used = self.tick;
            work.restore_from(&snap.soc);
            self.stats.checkpoint_cache_hits += 1;
        } else {
            // Replay a clone of the checkpoint, not the resident system: the
            // snapshot then shares the checkpoint's unwritten pages, and the
            // resident system keeps the pages it owns. The snapshot is the
            // golden system, so every error that surfaces at `c` starts
            // from it.
            let mut snap = checkpoint.clone();
            snap.run_until_halt(c);
            work.restore_from(&snap);
            self.stats.checkpoint_cache_misses += 1;
            if self.snapshots.len() >= MAX_SNAPSHOTS {
                if let Some(&oldest) = self
                    .snapshots
                    .iter()
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(c, _)| c)
                {
                    self.snapshots.remove(&oldest);
                    self.stats.checkpoint_cache_evictions += 1;
                }
            }
            self.tick += 1;
            self.snapshots.insert(
                c,
                Snapshot {
                    soc: snap,
                    last_used: self.tick,
                },
            );
        }
        self.restore_hist.record(t_position.elapsed().as_secs_f64());

        work.mpu = mpu;
        work.run_until_halt(eval.max_cycles);
        eval.workload.goal.succeeded(work)
    }
}

/// The run-to-halt reference verdict of one `(T_e, faulty bits)` error set,
/// with no cache: restore the nearest golden checkpoint, step through the
/// injection cycle, write the errors back, and simulate to completion. This
/// is the oracle the snapshot cache — and the multilevel estimator's
/// cross-level consistency tests — are pinned against.
pub fn reference_verdict(eval: &Evaluation, te: u64, faulty_bits: &[MpuBit]) -> bool {
    let mut soc = eval.golden.nearest_checkpoint(te).clone();
    while soc.cycle <= te {
        soc.step();
    }
    for &b in faulty_bits {
        soc.mpu.toggle_bit(b);
    }
    soc.run_until_halt(eval.max_cycles);
    eval.workload.goal.succeeded(&soc)
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

/// The stamp of an entry no chunk fold has counted yet.
const UNSTAMPED: u32 = u32::MAX;

/// An empty bucket of the [`ConclusionMemo`] index.
const EMPTY_BUCKET: u32 = 0;

/// One concluded pattern of a [`ConclusionMemo`]: its key and its verdict.
/// A slot never moves once concluded, so its number is a stable handle to
/// the outcome.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// The post-hardening registers of the key.
    pub(crate) regs: DffMask,
    /// The injection cycle of the key.
    te: u32,
    /// The verdict of the key.
    pub(crate) verdict: Concluded,
}

/// A worker's `(te, faulty_bits) → verdict` conclusion memo, each entry
/// stamped with the chunk whose fold last counted it.
///
/// The verdict is a pure function of the key (RNG is consumed before the
/// key is formed), so every worker keeping its own memo yields the same
/// campaign results as any sharing would; a worker only recomputes the
/// misses another worker already paid. The stamp makes the memo serve the
/// chunk-local counter model too. A chunk's fold [`stamp`](Self::stamp)s
/// the slot of each concluded run in run order, and a run is the chunk's
/// first of its key when the slot's stamp names another chunk. Probes
/// never stamp. So the per-chunk totals depend only on the multiset of
/// keys in the chunk: not on the order the lanes of one chunk or of a
/// window of chunks are concluded in, nor on which entries earlier chunks
/// left behind. (A stamp taken at probe time would only hold while one
/// chunk is in flight: probes by chunks k+1, k, k+1 of one key would count
/// chunk k+1's key twice.)
///
/// Entries live in a slab of [`Slot`]s that never move, behind an
/// open-addressed index of slot numbers (linear probing, at most half
/// full), so a caller that has probed a key once can keep the slot number
/// and read it later with [`slot`](Self::slot) without hashing. The index
/// holds four bytes a bucket; the key is compared in the slab. The stamps
/// sit apart from the slab, four bytes a slot, so a fold touches a small
/// dense table.
#[derive(Debug, Default)]
pub struct ConclusionMemo {
    /// Per bucket, a slot number plus one, or [`EMPTY_BUCKET`]; the length
    /// is zero or a power of two.
    index: Vec<u32>,
    slots: Vec<Slot>,
    /// Per slot, the chunk whose fold last counted it, or [`UNSTAMPED`].
    stamps: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl ConclusionMemo {
    /// The slot number of `key`, concluded by `conclude` on a miss.
    pub(crate) fn probe(
        &mut self,
        (te, regs): ConclusionKey,
        conclude: impl FnOnce() -> Concluded,
    ) -> u32 {
        let te = u32::try_from(te).expect("injection cycle beyond u32");
        if 2 * (self.slots.len() + 1) > self.index.len() {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let mut b = bucket_of(te, &regs) & mask;
        loop {
            match self.index[b] {
                EMPTY_BUCKET => break,
                s => {
                    let slot = &self.slots[s as usize - 1];
                    if slot.te == te && slot.regs == regs {
                        self.hits += 1;
                        return s - 1;
                    }
                }
            }
            b = (b + 1) & mask;
        }
        self.misses += 1;
        // Bucket values are slot numbers plus one.
        assert!(
            self.slots.len() < u32::MAX as usize,
            "conclusion memo beyond u32 slots"
        );
        let n = self.slots.len() as u32;
        if self.slots.len() == self.slots.capacity() {
            // Grow by a quarter, not double: the slab lives as long as the
            // campaign, and its spare capacity would too.
            let more = self.slots.len() / 4 + 64;
            self.slots.reserve_exact(more);
            self.stamps.reserve_exact(more);
        }
        self.slots.push(Slot {
            regs,
            te,
            verdict: conclude(),
        });
        self.stamps.push(UNSTAMPED);
        self.index[b] = n + 1;
        n
    }

    /// Count a run of slot `slot` in chunk `chunk`'s fold: whether it is
    /// the chunk's first run of the slot's key. A masked run
    /// ([`MASKED_SLOT`](crate::flow::MASKED_SLOT)) probed no key and is
    /// never first.
    pub(crate) fn stamp(&mut self, slot: u32, chunk: u32) -> bool {
        debug_assert_ne!(chunk, UNSTAMPED, "chunk index out of stamp range");
        // No slot is numbered `MASKED_SLOT`, `u32::MAX`.
        let Some(s) = self.stamps.get_mut(slot as usize) else {
            return false;
        };
        let first = *s != chunk;
        *s = chunk;
        first
    }

    /// Slot `slot`, as a probe returned it.
    pub(crate) fn slot(&self, slot: u32) -> &Slot {
        &self.slots[slot as usize]
    }

    /// Double the index (or make the first one) and re-place every slot.
    fn grow(&mut self) {
        let len = (2 * self.index.len()).max(64);
        self.index.clear();
        self.index.resize(len, EMPTY_BUCKET);
        for (n, s) in self.slots.iter().enumerate() {
            let mut b = bucket_of(s.te, &s.regs) & (len - 1);
            while self.index[b] != EMPTY_BUCKET {
                b = (b + 1) & (len - 1);
            }
            self.index[b] = n as u32 + 1;
        }
    }

    /// Number of concluded patterns held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// `(hits, misses)` over every probe of this memo; reading a kept slot
    /// is no probe.
    pub(crate) fn probe_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// The index bucket of a key before masking: a [`WordHasher`] fold of its
/// words.
fn bucket_of(te: u32, regs: &DffMask) -> usize {
    let mut h = WordHasher::default();
    h.write_u64(u64::from(te));
    regs.hash(&mut h);
    h.finish() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{StrikeClass, MASKED_SLOT};

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

    /// Probe `key`, concluding `success` on a miss, and count it in chunk
    /// `chunk`'s fold (`None`: an uncounted probe, as the MLMC twin's);
    /// `(verdict success, first in chunk, whether it was computed)`.
    fn probe(
        memo: &mut ConclusionMemo,
        key: ConclusionKey,
        chunk: Option<u32>,
        success: bool,
    ) -> (bool, bool, bool) {
        let mut computed = false;
        let slot = memo.probe(key, || {
            computed = true;
            concluded(success)
        });
        let first = chunk.is_some_and(|c| memo.stamp(slot, c));
        (memo.slot(slot).verdict.success, first, computed)
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
        // The next chunk's first run of a held key is a first again, but
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
        // A masked run names no slot and is never first.
        assert!(!memo.stamp(MASKED_SLOT, 2));
    }

    /// Stamps are taken by the fold, so the order in which a window's
    /// chunks probe a key does not count it twice: probes by chunks 1, 0
    /// and 1 again, then the folds of chunks 0 and 1 in order, each see
    /// the key's first run once.
    #[test]
    fn interleaved_probes_count_each_chunk_once() {
        let mut memo = ConclusionMemo::default();
        let key = key_of(4, &[3, 90]);
        let probes: Vec<(u32, u32)> = [1u32, 0, 1]
            .iter()
            .map(|&c| (c, memo.probe(key, || concluded(true))))
            .collect();
        assert_eq!(memo.probe_stats(), (2, 1));
        for chunk in 0..2 {
            let firsts = probes
                .iter()
                .filter(|&&(c, _)| c == chunk)
                .filter(|&&(_, slot)| memo.stamp(slot, chunk))
                .count();
            assert_eq!(firsts, 1, "chunk {chunk}");
        }
    }

    proptest::proptest! {
        /// A caller that keeps each key's slot from its first probe and
        /// reads it later sees the same verdicts, and stamped the same
        /// way the same first-in-chunk flags, as one that probes every
        /// time, over chunks in any order with uncounted probes between;
        /// the memo's hash probes drop by exactly the kept-slot reads.
        #[test]
        fn slot_recalls_match_probes(
            probes in proptest::collection::vec(
                (0u32..4, 0u64..3, 0usize..4, proptest::prelude::any::<bool>()),
                1..120,
            ),
        ) {
            let (mut probed, mut recalled) = (ConclusionMemo::default(), ConclusionMemo::default());
            let mut slots = HashMap::new();
            let mut recalls = 0;
            for (i, &(chunk, te, reg, counted)) in probes.iter().enumerate() {
                let key = key_of(te, &[reg, 64 + reg]);
                let success = (te + reg as u64).is_multiple_of(2);
                let chunk = counted.then_some(chunk);
                let want_slot = probed.probe(key, || concluded(success));
                let want_first = chunk.is_some_and(|c| probed.stamp(want_slot, c));
                let want = probed.slot(want_slot).verdict;
                let slot = match (slots.get(&key), chunk) {
                    (Some(&slot), Some(_)) => {
                        recalls += 1;
                        slot
                    }
                    _ => {
                        let slot = recalled.probe(key, || concluded(success));
                        slots.insert(key, slot);
                        let s = recalled.slot(slot);
                        proptest::prop_assert_eq!((s.te, s.regs), (te as u32, key.1));
                        slot
                    }
                };
                let got_first = chunk.is_some_and(|c| recalled.stamp(slot, c));
                let got = recalled.slot(slot).verdict;
                proptest::prop_assert_eq!(
                    (got.success, got.class, got.analytic, got_first),
                    (want.success, want.class, want.analytic, want_first),
                    "probe {}", i
                );
            }
            let ((hits, misses), (rhits, rmisses)) = (probed.probe_stats(), recalled.probe_stats());
            proptest::prop_assert_eq!((hits, misses), (rhits + recalls, rmisses));
            proptest::prop_assert_eq!(probed.len(), recalled.len());
        }
    }

    /// Slots stay put while the index grows past many doublings, and every
    /// key still finds its own slot.
    #[test]
    fn slots_are_stable_as_the_index_grows() {
        let mut memo = ConclusionMemo::default();
        let keys: Vec<ConclusionKey> = (0..3000u64)
            .map(|i| key_of(i % 50, &[(i / 50) as usize % 170, 171]))
            .collect();
        let slots: Vec<u32> = keys
            .iter()
            .map(|&k| memo.probe(k, || concluded(k.0 % 3 == 0)))
            .collect();
        assert_eq!(memo.len(), 3000);
        assert!(memo.index.len() >= 2 * memo.len());
        for (k, &slot) in keys.iter().zip(&slots) {
            let again = memo.probe(*k, || unreachable!("held"));
            assert_eq!(again, slot);
            let s = memo.slot(slot);
            assert_eq!((u64::from(s.te), s.regs), *k);
            assert_eq!(s.verdict.success, k.0 % 3 == 0);
        }
        assert_eq!(memo.probe_stats(), (3000, 3000));
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
        // A full cache evicts its least recently used snapshot: resume one
        // more distinct `te` than the bound holds, touching the first `te`
        // again so the second is the oldest. A flipped registered
        // violation is visible at once, so each resume is keyed by
        // `te + 1`.
        const { assert!(MAX_SNAPSHOTS >= 8, "budget must hold a useful working set") };
        let eval = Evaluation::new(xlmc_soc::workloads::illegal_write()).unwrap();
        assert!(
            eval.golden.cycles > MAX_SNAPSHOTS as u64 + 1,
            "every te must precede halt"
        );
        let flip = [MpuBit::Violation];
        let mut ff = RtlResume::default();
        assert_eq!(ff.stats(), ResumeStats::default());
        ff.resume(&eval, 0, &flip);
        for te in 1..MAX_SNAPSHOTS as u64 {
            ff.resume(&eval, te, &flip);
            ff.resume(&eval, 0, &flip);
        }
        assert_eq!(ff.snapshots.len(), MAX_SNAPSHOTS);
        ff.resume(&eval, MAX_SNAPSHOTS as u64, &flip);
        assert_eq!(ff.snapshots.len(), MAX_SNAPSHOTS);
        assert!(ff.snapshots.contains_key(&1));
        assert!(!ff.snapshots.contains_key(&2));
        let stats = ff.stats();
        assert_eq!(stats.checkpoint_cache_evictions, 1);
        assert_eq!(stats.checkpoint_cache_misses, MAX_SNAPSHOTS as u64 + 1);
        assert_eq!(stats.checkpoint_cache_hits, MAX_SNAPSHOTS as u64 - 1);
        assert_eq!(stats.module_resolved, 0);
        assert_eq!(
            stats.rtl_resumes,
            stats.checkpoint_cache_hits + stats.checkpoint_cache_misses
        );
    }

    #[test]
    fn stats_accumulate_and_expose_rates() {
        let mut total = ResumeStats::default();
        let worker = ResumeStats {
            rtl_resumes: 10,
            module_resolved: 2,
            mpu_steps: 30,
            idle_skipped: 12,
            checkpoint_cache_hits: 6,
            checkpoint_cache_misses: 2,
            checkpoint_cache_evictions: 1,
        };
        total.add(&worker);
        total.add(&worker);
        assert_eq!(total.rtl_resumes, 20);
        assert_eq!(total.module_resolved, 4);
        assert_eq!((total.mpu_steps, total.idle_skipped), (60, 24));
        assert_eq!(total.checkpoint_cache_evictions, 2);
        assert!((total.checkpoint_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ResumeStats::default().checkpoint_hit_rate(), 0.0);
    }

    /// A configuration bit no access check reads, flipped before the
    /// one configuration-window read of a small privileged program: the
    /// read returns the flipped word, which the program stores as the
    /// "leaked secret". The resume escalates at the read and concludes
    /// what the run-to-halt reference does; flipped after the read, the
    /// error stays in the MPU to the end of the run and takes the golden
    /// verdict.
    #[test]
    fn a_configuration_read_escalates_and_matches_the_reference() {
        use xlmc_soc::workloads::{LEAK_ADDR, SECRET_VALUE};
        use xlmc_soc::{AttackGoal, GoldenRun, Workload};
        let src = format!(
            "
            li r1, 0x8100
            li r2, {planted}
            sw r2, 24(r1)
            nop
            nop
            nop
            nop
            nop
            nop
            lw r3, 24(r1)
            sw r3, {leak}(r0)
            nop
            nop
            nop
            halt
            ",
            planted = SECRET_VALUE ^ 0x8,
            leak = LEAK_ADDR,
        );
        let program = xlmc_soc::asm::assemble(&src).unwrap().words;
        let golden = GoldenRun::record(&program, 5_000, 32);
        let read = (0..golden.cycles)
            .find(|&c| golden.stimulus[c as usize].cfg_read)
            .expect("the program reads the configuration window");
        let eval = Evaluation {
            workload: Workload {
                name: "cfg_read",
                description: "reads a configuration word into the leak buffer",
                program,
                goal: AttackGoal::IllegalRead,
            },
            target_cycle: read,
            max_cycles: golden.cycles + 500,
            golden,
        };
        let flip = [MpuBit::Base(2, 3)];
        let mut ff = RtlResume::default();
        assert!(ff.resume(&eval, read - 3, &flip), "the read leaks the flip");
        assert!(reference_verdict(&eval, read - 3, &flip));
        assert_eq!(ff.snapshots.keys().copied().collect::<Vec<_>>(), [read]);
        assert!(!ff.resume(&eval, read, &flip));
        assert!(!reference_verdict(&eval, read, &flip));
        // Still private when the golden run halts: settled by the MPU
        // alone, with no snapshot of the end of the run.
        assert_eq!(ff.snapshots.len(), 1);
        let stats = ff.stats();
        assert_eq!(stats.module_resolved, 1);
        assert_eq!(
            stats.mpu_steps + stats.idle_skipped,
            2 + (eval.golden.cycles - read - 1),
            "{stats:?}"
        );
        assert!(stats.idle_skipped > 0, "{stats:?}");
    }

    /// Pipeline-bit flips that reconverge before the rest of the system
    /// sees them are settled by the MPU alone, with the reference verdict.
    #[test]
    fn reconverging_pipeline_flips_are_settled_by_the_mpu() {
        let eval = Evaluation::new(xlmc_soc::workloads::illegal_write()).unwrap();
        let mut ff = RtlResume::default();
        let mut resumes = 0;
        for te in eval.target_cycle - 20..eval.target_cycle + 2 {
            for b in 0..16 {
                let bits = [MpuBit::PipeAddr(b)];
                assert_eq!(
                    ff.resume(&eval, te, &bits),
                    reference_verdict(&eval, te, &bits),
                    "PipeAddr({b}) at te {te}"
                );
                resumes += 1;
            }
        }
        let stats = ff.stats();
        assert_eq!(stats.rtl_resumes, resumes);
        assert!(stats.module_resolved > resumes / 2, "{stats:?}");
        assert!(stats.checkpoint_cache_misses > 0, "{stats:?}");
        assert_eq!(
            stats.checkpoint_cache_hits + stats.checkpoint_cache_misses + stats.module_resolved,
            stats.rtl_resumes
        );
    }

    /// A cached resume — cold (restore-and-replay), warm (snapshot
    /// restore) or settled by the MPU alone — concludes every error set
    /// exactly like the uncached reference, for transient pipeline/status
    /// flips and sticky config flips alike.
    #[test]
    fn cached_resumes_match_the_reference_verdict() {
        let eval = Evaluation::new(xlmc_soc::workloads::illegal_write()).unwrap();
        let mut ff = RtlResume::default();
        let bits = [
            MpuBit::PipeAddr(0),
            MpuBit::PipeAddr(9),
            MpuBit::PipeKind(0),
            MpuBit::PipeUser,
            MpuBit::PipeValid,
            MpuBit::Violation,
            MpuBit::Enable,
        ];
        for te in [eval.target_cycle - 12, eval.target_cycle - 5] {
            for bit in bits {
                let cached = ff.resume(&eval, te, &[bit]);
                assert_eq!(
                    cached,
                    reference_verdict(&eval, te, &[bit]),
                    "{bit:?} at te {te}"
                );
            }
        }
        let stats = ff.stats();
        assert_eq!(stats.rtl_resumes, 2 * bits.len() as u64, "{stats:?}");
        assert_eq!(
            stats.checkpoint_cache_hits + stats.checkpoint_cache_misses + stats.module_resolved,
            stats.rtl_resumes,
            "{stats:?}"
        );
    }
}
