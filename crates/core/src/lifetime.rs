//! Error lifetime and contamination characterization
//! (pre-characterization step 3, Observation 3).
//!
//! For every register in the responding-signal cones, single bit errors are
//! injected at several points of the synthetic golden run; the faulty RTL
//! simulation (the MPU alone while its error is private to it, the whole
//! system after) is compared against the recorded golden states cycle by
//! cycle. The **error lifetime** is the number of cycles until the MPU
//! state re-converges (capped); the **error contamination number** is how
//! many *other* registers the error ever spreads to. Long-lived,
//! non-contaminating registers are **memory-type** (evaluated analytically
//! by the flow); the rest are **computation-type** (sampled).

use xlmc_soc::golden::{GoldenRun, MpuStop};
use xlmc_soc::{MpuBit, MpuState, Soc};

/// Censoring cap for the lifetime measurement, in cycles.
pub const LIFETIME_CAP: u32 = 200;
/// Lifetime at or above which a register counts as long-lived.
pub const MEMORY_LIFETIME_MIN: u32 = 100;
/// Maximum contamination for the memory-type classification.
pub const MEMORY_CONTAMINATION_MAX: u32 = 0;

/// The paper's register classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterKind {
    /// Errors persist locally: long lifetime, no contamination. Evaluated
    /// analytically.
    Memory,
    /// Errors propagate or get masked quickly. Evaluated by sampling.
    Computation,
}

/// Measured characterization of one register bit.
#[derive(Debug, Clone, PartialEq)]
pub struct BitCharacter {
    /// Error lifetime: the *maximum* over the injection samples (capped at
    /// [`LIFETIME_CAP`]). The maximum measures persistence potential — an
    /// error that survives long whenever nothing overwrites it must be
    /// treated as long-lived by the sampler, even if some injections
    /// happened shortly before a reconfiguration.
    pub lifetime: u32,
    /// Median error contamination number.
    pub contamination: u32,
    /// Raw `(lifetime, contamination)` per injection.
    pub samples: Vec<(u32, u32)>,
    /// Fraction of injections whose error propagated to the responding
    /// signal register — the injection-measured bit-flip correlation of
    /// Observation 2, which captures *persistent* registers that the
    /// switching-signature correlation cannot see (they rarely toggle).
    pub rs_flip_fraction: f64,
    /// Fraction of injections whose error *suppressed* responding-signal
    /// activity (the faulty run raised strictly fewer violations over the
    /// observation window than the golden run). Per the paper's attack
    /// analysis, suppression is exactly what the attacker needs: "prevent
    /// the security-critical modules from setting the responding signals".
    pub rs_suppress_fraction: f64,
    /// The derived classification.
    pub kind: RegisterKind,
}

/// Characterization of every MPU register bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterCharacterization {
    /// Indexed by [`MpuBit::index`].
    per_bit: Vec<BitCharacter>,
}

/// The outcome of one injection: lifetime, contamination, whether the
/// error reached the responding signal, whether it suppressed it.
type Injection = (u32, u32, bool, bool);

fn median(values: &mut [u32]) -> u32 {
    values.sort_unstable();
    values[values.len() / 2]
}

/// The observation of one injection over its window, one faulty MPU state
/// per cycle: the packed XOR with the golden state gives the lifetime (the
/// first zero) and, OR-ed up to it, the set of bits the error reached.
/// A state may stand for a run of `n` cycles, over which the golden state
/// stands still too (an idle run, [`GoldenRun::step_faulty_mpu`]).
struct Observer<'a> {
    golden_packed: &'a [[u64; 3]],
    cycles: usize,
    reached: [u64; 3],
    lifetime: u32,
    converged: bool,
    faulty_viols: usize,
}

impl Observer<'_> {
    fn observe(&mut self, mpu: &MpuState, n: u64) {
        let golden_state = &self.golden_packed[self.cycles];
        let first = self.cycles + 1;
        self.cycles += n as usize;
        // Violation activity is counted over the whole window
        // (alignment-insensitive): fewer faulty violations = suppression.
        self.faulty_viols += n as usize * usize::from(mpu.violation);
        if !self.converged {
            let packed = mpu.packed();
            let diff: [u64; 3] = std::array::from_fn(|i| packed[i] ^ golden_state[i]);
            if diff == [0; 3] {
                self.lifetime = first as u32;
                self.converged = true;
            }
            for (r, d) in self.reached.iter_mut().zip(diff) {
                *r |= d;
            }
        }
    }
}

/// Inject every bit of [`MpuBit::all`] at the start of `cycle` of the
/// golden run; entry `b.index()` is the outcome for bit `b`.
///
/// Each faulty MPU first steps alone ([`GoldenRun::step_faulty_mpu`]),
/// jumping over the golden run's idle cycles. An
/// error that reconverges there is golden for the rest of the window, so
/// its remaining violations are the golden ones, read from suffix sums.
/// An error the rest of the system can see continues in one resident
/// `Soc`, positioned at the stop cycle from the nearest golden checkpoint.
fn inject_all(golden: &GoldenRun, cycle: u64) -> Vec<Injection> {
    // The observation window: the golden states after `cycle`, up to the
    // cap or the end of the run (the error outlived the benchmark).
    let end = (cycle + u64::from(LIFETIME_CAP)).min(golden.cycles - 1);
    let window = &golden.mpu_states[cycle as usize + 1..=end as usize];
    let golden_packed: Vec<[u64; 3]> = window.iter().map(|s| s.packed()).collect();
    // viols_from[k]: golden violations in window[k..].
    let mut viols_from = vec![0usize; window.len() + 1];
    for (k, s) in window.iter().enumerate().rev() {
        viols_from[k] = viols_from[k + 1] + usize::from(s.violation);
    }
    let golden_viols = viols_from[0];
    let viol = MpuBit::Violation.index();
    let mut soc: Option<Soc> = None;
    MpuBit::all()
        .into_iter()
        .map(|bit| {
            let mut mpu = golden.mpu_states[cycle as usize];
            mpu.toggle_bit(bit);
            let mut obs = Observer {
                golden_packed: &golden_packed,
                cycles: 0,
                reached: [0; 3],
                lifetime: LIFETIME_CAP,
                converged: false,
                faulty_viols: 0,
            };
            match golden
                .step_faulty_mpu(&mut mpu, cycle, end, |m, n| obs.observe(m, n))
                .0
            {
                MpuStop::Reconverged(_) => obs.faulty_viols += viols_from[obs.cycles],
                MpuStop::End(_) => {}
                MpuStop::Visible(c) => {
                    let checkpoint = golden.nearest_checkpoint(c);
                    let soc = soc.get_or_insert_with(|| checkpoint.clone());
                    soc.restore_from(checkpoint);
                    soc.run_until_halt(c);
                    soc.mpu = mpu;
                    for _ in c..end {
                        soc.step();
                        obs.observe(&soc.mpu, 1);
                    }
                }
            }
            let mut reached = obs.reached;
            let reached_rs = reached[viol / 64] >> (viol % 64) & 1 == 1;
            reached[bit.index() / 64] &= !(1 << (bit.index() % 64));
            let contamination = reached.iter().map(|w| w.count_ones()).sum();
            (
                obs.lifetime,
                contamination,
                reached_rs,
                obs.faulty_viols < golden_viols,
            )
        })
        .collect()
}

/// Summarize the injections of one bit, one per sample cycle.
fn character(raw: &[Injection]) -> BitCharacter {
    let samples: Vec<(u32, u32)> = raw.iter().map(|&(l, c, _, _)| (l, c)).collect();
    let rs_flip_fraction = raw.iter().filter(|&&(_, _, r, _)| r).count() as f64 / raw.len() as f64;
    let rs_suppress_fraction =
        raw.iter().filter(|&&(_, _, _, su)| su).count() as f64 / raw.len() as f64;
    let lifetime = samples.iter().map(|s| s.0).max().unwrap_or(0);
    let mut contams: Vec<u32> = samples.iter().map(|s| s.1).collect();
    let contamination = median(&mut contams);
    let kind = if lifetime >= MEMORY_LIFETIME_MIN && contamination == MEMORY_CONTAMINATION_MAX {
        RegisterKind::Memory
    } else {
        RegisterKind::Computation
    };
    BitCharacter {
        lifetime,
        contamination,
        samples,
        rs_flip_fraction,
        rs_suppress_fraction,
        kind,
    }
}

impl RegisterCharacterization {
    /// Characterize every MPU register bit by injection at `sample_cycles`
    /// of the synthetic golden run.
    ///
    /// # Panics
    ///
    /// Panics when `sample_cycles` is empty or reaches past the run.
    pub fn measure(golden: &GoldenRun, sample_cycles: &[u64]) -> Self {
        assert!(!sample_cycles.is_empty(), "need at least one sample cycle");
        assert!(
            sample_cycles.iter().all(|&c| c < golden.cycles),
            "sample cycle beyond the golden run"
        );
        // by_cycle[s][b]: bit b injected at sample cycle s.
        let by_cycle: Vec<Vec<Injection>> = sample_cycles
            .iter()
            .map(|&c| inject_all(golden, c))
            .collect();
        let per_bit = (0..by_cycle[0].len())
            .map(|b| character(&by_cycle.iter().map(|s| s[b]).collect::<Vec<_>>()))
            .collect();
        Self { per_bit }
    }

    /// The characterization of one bit.
    pub fn bit(&self, bit: MpuBit) -> &BitCharacter {
        &self.per_bit[bit.index()]
    }

    /// The classification of one bit.
    pub fn kind(&self, bit: MpuBit) -> RegisterKind {
        self.per_bit[bit.index()].kind
    }

    /// Iterate `(bit, character)` pairs in [`MpuBit::all`] order.
    pub fn iter(&self) -> impl Iterator<Item = (MpuBit, &BitCharacter)> {
        MpuBit::all().into_iter().zip(&self.per_bit)
    }

    /// Fraction of registers classified memory-type.
    pub fn memory_fraction(&self) -> f64 {
        let mem = self
            .per_bit
            .iter()
            .filter(|c| c.kind == RegisterKind::Memory)
            .count();
        mem as f64 / self.per_bit.len() as f64
    }
}

/// Evenly spaced sample cycles across the middle of a golden run.
pub fn default_sample_cycles(golden: &GoldenRun, count: usize) -> Vec<u64> {
    let lo = golden.cycles / 5;
    let hi = golden.cycles * 4 / 5;
    (0..count)
        .map(|i| lo + (hi - lo) * i as u64 / count.max(1) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlmc_soc::workloads;

    fn golden() -> GoldenRun {
        let w = workloads::synthetic_precharacterization();
        GoldenRun::record(&w.program, 20_000, 64)
    }

    /// The straightforward per-injection measurement the packed
    /// [`inject_all`] replaced: a fresh replay from the nearest checkpoint
    /// for every (bit, cycle), then a bit-by-bit compare into a set.
    fn reference_measure_one(golden: &GoldenRun, bit: MpuBit, cycle: u64) -> Injection {
        let mut soc: Soc = golden.nearest_checkpoint(cycle).clone();
        while soc.cycle < cycle {
            soc.step();
        }
        soc.mpu.toggle_bit(bit);
        let mut contaminated = std::collections::HashSet::new();
        let mut reached_rs = false;
        let mut golden_viols = 0u32;
        let mut faulty_viols = 0u32;
        let mut lifetime = LIFETIME_CAP;
        let mut converged = false;
        let all_bits = MpuBit::all();
        for k in 1..=LIFETIME_CAP {
            let golden_idx = cycle + u64::from(k);
            if golden_idx >= golden.cycles {
                break;
            }
            soc.step();
            let golden_state = &golden.mpu_states[golden_idx as usize];
            if golden_state.bit(MpuBit::Violation) {
                golden_viols += 1;
            }
            if soc.mpu.bit(MpuBit::Violation) {
                faulty_viols += 1;
            }
            if !converged {
                let mut any_diff = false;
                for &b in &all_bits {
                    if soc.mpu.bit(b) != golden_state.bit(b) {
                        any_diff = true;
                        if b != bit {
                            contaminated.insert(b);
                        }
                        if b == MpuBit::Violation {
                            reached_rs = true;
                        }
                    }
                }
                if !any_diff {
                    lifetime = k;
                    converged = true;
                }
            }
        }
        (
            lifetime,
            contaminated.len() as u32,
            reached_rs,
            faulty_viols < golden_viols,
        )
    }

    fn reference_measure(golden: &GoldenRun, sample_cycles: &[u64]) -> RegisterCharacterization {
        let per_bit = MpuBit::all()
            .into_iter()
            .map(|bit| {
                let raw: Vec<Injection> = sample_cycles
                    .iter()
                    .map(|&c| reference_measure_one(golden, bit, c))
                    .collect();
                character(&raw)
            })
            .collect();
        RegisterCharacterization { per_bit }
    }

    #[test]
    fn packed_measurement_equals_the_reference() {
        let g = golden();
        let mut cases: Vec<Vec<u64>> = [1, 4, 5, 6]
            .iter()
            .map(|&k| default_sample_cycles(&g, k))
            .collect();
        // Windows cut short by the end of the run (censoring), down to an
        // empty one at the last cycle.
        let near_end = g.cycles - u64::from(LIFETIME_CAP) / 2;
        cases.push(vec![near_end, g.cycles - 1]);
        for cycles in cases {
            let fast = RegisterCharacterization::measure(&g, &cycles);
            assert_eq!(
                fast,
                reference_measure(&g, &cycles),
                "sample cycles {cycles:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        #[test]
        fn packed_measurement_equals_the_reference_at_random_cycles(
            picks in proptest::collection::vec(0u64..u64::MAX, 1..4),
        ) {
            let g = golden();
            let cycles: Vec<u64> = picks.iter().map(|p| p % g.cycles).collect();
            let fast = RegisterCharacterization::measure(&g, &cycles);
            proptest::prop_assert_eq!(fast, reference_measure(&g, &cycles));
        }
    }

    #[test]
    fn iteration_is_in_canonical_order() {
        let g = golden();
        let chars = RegisterCharacterization::measure(&g, &[g.cycles / 2]);
        let bits: Vec<MpuBit> = chars.iter().map(|(b, _)| b).collect();
        assert_eq!(bits, MpuBit::all());
    }

    #[test]
    fn pipe_registers_are_computation_type() {
        let g = golden();
        let chars = RegisterCharacterization::measure(&g, &default_sample_cycles(&g, 4));
        // Pipeline registers are overwritten every cycle: tiny lifetime.
        for bit in [MpuBit::PipeAddr(3), MpuBit::PipeValid, MpuBit::PipeUser] {
            let c = chars.bit(bit);
            assert!(c.lifetime <= 5, "{bit:?} lifetime {}", c.lifetime);
            assert_eq!(chars.kind(bit), RegisterKind::Computation, "{bit:?}");
        }
    }

    #[test]
    fn unused_config_registers_are_memory_type() {
        let g = golden();
        let chars = RegisterCharacterization::measure(&g, &default_sample_cycles(&g, 4));
        // Region 2 is never configured or matched: flips persist silently.
        for bit in [MpuBit::Base(2, 7), MpuBit::Limit(2, 3), MpuBit::Perms(2, 0)] {
            let c = chars.bit(bit);
            assert_eq!(c.lifetime, LIFETIME_CAP, "{bit:?}");
            assert_eq!(c.contamination, 0, "{bit:?}");
            assert_eq!(chars.kind(bit), RegisterKind::Memory, "{bit:?}");
        }
    }

    #[test]
    fn a_majority_of_registers_are_memory_type() {
        // The paper's Figure 4: "more than half of the total registers have
        // long lifetime and 0 contamination number".
        let g = golden();
        let chars = RegisterCharacterization::measure(&g, &default_sample_cycles(&g, 4));
        let frac = chars.memory_fraction();
        assert!(frac > 0.5, "memory-type fraction {frac}");
    }

    #[test]
    fn contaminating_config_bits_are_detected() {
        let g = golden();
        let chars = RegisterCharacterization::measure(&g, &default_sample_cycles(&g, 4));
        // Flipping limit bit 14 of region 0 (0x5fff -> 0x1fff) makes the
        // synthetic sweep's legal accesses violate, which shows up in the
        // violation/sticky registers: contamination > 0 on some sample.
        let c = chars.bit(MpuBit::Limit(0, 14));
        assert!(
            c.samples.iter().any(|&(_, contam)| contam > 0),
            "exercised limit bit should contaminate: {:?}",
            c.samples
        );
    }

    #[test]
    fn lifetimes_are_capped() {
        let g = golden();
        let chars = RegisterCharacterization::measure(&g, &[g.cycles / 2]);
        for (bit, c) in chars.iter() {
            assert!(c.lifetime <= LIFETIME_CAP, "{bit:?}");
            for &(l, _) in &c.samples {
                assert!(l >= 1, "{bit:?} lifetime 0 impossible");
            }
        }
    }

    #[test]
    fn default_sample_cycles_are_in_range() {
        let g = golden();
        let cycles = default_sample_cycles(&g, 6);
        assert_eq!(cycles.len(), 6);
        for &c in &cycles {
            assert!(c > 0 && c < g.cycles);
        }
    }
}
