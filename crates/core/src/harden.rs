//! Register hardening: the countermeasure study of paper §6.
//!
//! "Suppose we use error resilient designs for the identified 3% registers,
//! which permits around 10X better resilience with 3X area overhead, then
//! the overall SSF can be reduced by up to 6.5X with less than 2% increase
//! of MPU area." Hardened flip-flops (built-in soft-error resilience, refs
//! [19, 20]) absorb most upsets: a would-be flip survives with probability
//! `1 / resilience`.

use crate::model::SystemModel;
use rand::Rng;
use std::collections::BTreeMap;
use xlmc_netlist::CellKind;
use xlmc_soc::{MpuBit, MpuBitMask};

/// Electrical parameters of the hardened flip-flop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardeningModel {
    /// Upset-rate improvement: a flip survives with probability
    /// `1 / resilience`.
    pub resilience: f64,
    /// Cell-area multiplier of the hardened flip-flop.
    pub area_multiplier: f64,
}

impl Default for HardeningModel {
    fn default() -> Self {
        // The paper's numbers from refs [19, 20].
        Self {
            resilience: 10.0,
            area_multiplier: 3.0,
        }
    }
}

/// The set of hardened registers plus the hardening model.
#[derive(Debug, Clone)]
pub struct HardenedSet {
    bits: MpuBitMask,
    /// The hardening parameters.
    pub model: HardeningModel,
}

impl HardenedSet {
    /// Harden the given register bits.
    pub fn new(bits: impl IntoIterator<Item = MpuBit>, model: HardeningModel) -> Self {
        Self {
            bits: bits.into_iter().collect(),
            model,
        }
    }

    /// Number of hardened registers.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether no register is hardened.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether a register is hardened.
    pub fn contains(&self, bit: MpuBit) -> bool {
        self.bits.contains(bit)
    }

    /// Whether a would-be flip on `bit` survives the hardening.
    pub fn flip_survives(&self, bit: MpuBit, rng: &mut impl Rng) -> bool {
        if !self.bits.contains(bit) {
            return true;
        }
        rng.gen::<f64>() < 1.0 / self.model.resilience
    }

    /// The fractional area increase of the MPU from hardening these
    /// registers.
    pub fn area_overhead(&self, model: &SystemModel) -> f64 {
        let total = model.mpu.netlist().stats().area;
        let added =
            self.bits.len() as f64 * CellKind::Dff.area() * (self.model.area_multiplier - 1.0);
        added / total
    }
}

/// SCFI-style encoded control state (arXiv:2208.01356).
///
/// The MPU's non-configuration state — the bus-check pipeline and the
/// violation/sticky FSM — is re-encoded with a fault-detecting state code,
/// so a single-bit upset lands outside the valid codeword set and is
/// caught by the continuous signature check. Modeled as a per-bit *miss
/// rate*: a would-be flip on a covered bit survives (escapes the code)
/// with probability `miss_rate`.
#[derive(Debug, Clone)]
pub struct ScfiFsm {
    covered: MpuBitMask,
    /// Probability that a flip on a covered bit escapes the code check.
    pub miss_rate: f64,
    /// Cell-area multiplier of an encoded state flip-flop.
    pub area_multiplier: f64,
}

impl ScfiFsm {
    /// Encode every non-configuration register (pipeline + FSM + sticky
    /// status) with the default SCFI parameters.
    pub fn new() -> Self {
        Self::with_miss_rate(0.05)
    }

    /// Encode the non-configuration registers with an explicit miss rate.
    pub fn with_miss_rate(miss_rate: f64) -> Self {
        Self {
            covered: MpuBit::all()
                .into_iter()
                .filter(|b| !b.is_config())
                .collect(),
            miss_rate,
            // Encoded flops carry the code bits' share plus the checker.
            area_multiplier: 1.6,
        }
    }

    /// Number of encoded registers.
    pub fn len(&self) -> usize {
        self.covered.len()
    }

    /// Whether the encoding covers no register at all.
    pub fn is_empty(&self) -> bool {
        self.covered.is_empty()
    }

    /// Whether a register is covered by the encoding.
    pub fn contains(&self, bit: MpuBit) -> bool {
        self.covered.contains(bit)
    }
}

impl Default for ScfiFsm {
    fn default() -> Self {
        Self::new()
    }
}

/// Majority-voted replicated MPU configuration registers.
///
/// Every configuration bit is stored in three copies behind a majority
/// voter; a single-bit upset in any one copy is outvoted on the next read,
/// so a flip on a covered bit **never** lands. Deterministic — no survival
/// draw is consumed.
#[derive(Debug, Clone)]
pub struct DupConfigVote {
    covered: MpuBitMask,
    /// Per-bit area multiplier: two extra DFF copies plus the voter.
    pub area_multiplier: f64,
}

impl DupConfigVote {
    /// Replicate every configuration register.
    pub fn new() -> Self {
        Self {
            covered: MpuBit::all()
                .into_iter()
                .filter(|b| b.is_config())
                .collect(),
            area_multiplier: 2.2,
        }
    }

    /// Number of replicated registers.
    pub fn len(&self) -> usize {
        self.covered.len()
    }

    /// Whether the voter covers no register at all.
    pub fn is_empty(&self) -> bool {
        self.covered.is_empty()
    }

    /// Whether a register is covered by the voting.
    pub fn contains(&self, bit: MpuBit) -> bool {
        self.covered.contains(bit)
    }
}

impl Default for DupConfigVote {
    fn default() -> Self {
        Self::new()
    }
}

/// A hardening countermeasure the fault flow understands.
///
/// Every variant answers the same two questions the flow asks: does a
/// would-be flip on a bit survive the countermeasure (applied by
/// `FaultRunner::harden` *before* classification, so the analytic/RTL split
/// sees the post-hardening error set), and what does the countermeasure
/// cost in area.
#[derive(Debug, Clone)]
pub enum HardenedVariant {
    /// The paper's §6 study: uniformly resilient DFFs on selected bits.
    Uniform(HardenedSet),
    /// SCFI-style encoded control/FSM state ([`ScfiFsm`]).
    ScfiFsm(ScfiFsm),
    /// Majority-voted replicated configuration registers
    /// ([`DupConfigVote`]).
    DupConfigVote(DupConfigVote),
}

impl HardenedVariant {
    /// Short name used in reports and the scenario matrix.
    pub fn name(&self) -> &'static str {
        match self {
            HardenedVariant::Uniform(_) => "uniform",
            HardenedVariant::ScfiFsm(_) => "scfi_fsm",
            HardenedVariant::DupConfigVote(_) => "dup_config_vote",
        }
    }

    /// Whether a would-be flip on `bit` survives the countermeasure.
    ///
    /// Deterministic variants must not consume survival draws, and
    /// stochastic variants must consume exactly one per covered bit — the
    /// per-run stream discipline both kernels rely on.
    pub fn flip_survives(&self, bit: MpuBit, rng: &mut impl Rng) -> bool {
        match self {
            HardenedVariant::Uniform(set) => set.flip_survives(bit, rng),
            HardenedVariant::ScfiFsm(scfi) => {
                if !scfi.covered.contains(bit) {
                    return true;
                }
                rng.gen::<f64>() < scfi.miss_rate
            }
            HardenedVariant::DupConfigVote(vote) => !vote.covered.contains(bit),
        }
    }

    /// The fractional area increase of the MPU from this countermeasure.
    pub fn area_overhead(&self, model: &SystemModel) -> f64 {
        let total = model.mpu.netlist().stats().area;
        let added = match self {
            HardenedVariant::Uniform(set) => {
                return set.area_overhead(model);
            }
            HardenedVariant::ScfiFsm(scfi) => {
                scfi.covered.len() as f64 * CellKind::Dff.area() * (scfi.area_multiplier - 1.0)
            }
            HardenedVariant::DupConfigVote(vote) => {
                vote.covered.len() as f64 * CellKind::Dff.area() * (vote.area_multiplier - 1.0)
            }
        };
        added / total
    }
}

/// Rank registers by their SSF attribution (descending) and select the top
/// `fraction` of all registers. Returns the selected bits and the fraction
/// of total attribution they cover — the paper's "3% of registers
/// contribute more than 95% of SSF" analysis.
pub fn select_top_registers(
    attribution: &BTreeMap<MpuBit, f64>,
    total_registers: usize,
    fraction: f64,
) -> (Vec<MpuBit>, f64) {
    let mut ranked: Vec<(MpuBit, f64)> = attribution
        .iter()
        .map(|(&b, &w)| (b, w))
        .filter(|&(_, w)| w > 0.0)
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap()
            .then(a.0.dff_name().cmp(&b.0.dff_name()))
    });
    let take = ((total_registers as f64 * fraction).ceil() as usize).max(1);
    let total: f64 = ranked.iter().map(|&(_, w)| w).sum();
    let selected: Vec<(MpuBit, f64)> = ranked.into_iter().take(take).collect();
    let covered: f64 = selected.iter().map(|&(_, w)| w).sum();
    let coverage = if total > 0.0 { covered / total } else { 0.0 };
    (selected.into_iter().map(|(b, _)| b).collect(), coverage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn packed_masks_answer_like_hash_sets_with_the_same_draws() {
        use rand::RngCore;
        use std::collections::HashSet;
        let all = MpuBit::all();
        let mut order: Vec<MpuBit> = all.iter().chain(&all).chain(&all).copied().collect();
        // Fisher-Yates with a fixed seed: repeats and a scrambled order.
        let mut shuffle_rng = StdRng::seed_from_u64(9);
        for i in (1..order.len()).rev() {
            order.swap(i, shuffle_rng.gen_range(0..=i));
        }
        let picked: Vec<MpuBit> = all.iter().copied().step_by(7).collect();
        // (variant, its covered set, survival probability of a covered
        // flip; `None` = deterministic, no draw).
        let cases = [
            (
                HardenedVariant::Uniform(HardenedSet::new(
                    picked.clone(),
                    HardeningModel::default(),
                )),
                picked.iter().copied().collect::<HashSet<_>>(),
                Some(1.0 / HardeningModel::default().resilience),
            ),
            (
                HardenedVariant::ScfiFsm(ScfiFsm::new()),
                all.iter().copied().filter(|b| !b.is_config()).collect(),
                Some(ScfiFsm::new().miss_rate),
            ),
            (
                HardenedVariant::DupConfigVote(DupConfigVote::new()),
                all.iter().copied().filter(|b| b.is_config()).collect(),
                None,
            ),
        ];
        for (variant, covered, p) in cases {
            let mut rng = StdRng::seed_from_u64(17);
            let mut reference_rng = StdRng::seed_from_u64(17);
            for &bit in &order {
                let want = match (covered.contains(&bit), p) {
                    (false, _) => true,
                    (true, Some(p)) => reference_rng.gen::<f64>() < p,
                    (true, None) => false,
                };
                assert_eq!(variant.flip_survives(bit, &mut rng), want, "{bit:?}");
            }
            assert_eq!(
                rng.next_u64(),
                reference_rng.next_u64(),
                "{}",
                variant.name()
            );
        }
        let set = HardenedSet::new(
            picked.iter().chain(&picked).copied(),
            HardeningModel::default(),
        );
        assert_eq!(set.len(), picked.len());
        assert_eq!(ScfiFsm::new().len() + DupConfigVote::new().len(), all.len());
    }

    #[test]
    fn unhardened_bits_always_flip() {
        let set = HardenedSet::new([MpuBit::Violation], HardeningModel::default());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert!(set.flip_survives(MpuBit::PipeValid, &mut rng));
        }
    }

    #[test]
    fn hardened_bits_absorb_most_flips() {
        let set = HardenedSet::new([MpuBit::Violation], HardeningModel::default());
        let mut rng = StdRng::seed_from_u64(2);
        let survived = (0..10_000)
            .filter(|_| set.flip_survives(MpuBit::Violation, &mut rng))
            .count();
        let rate = survived as f64 / 10_000.0;
        assert!((rate - 0.1).abs() < 0.02, "survival rate {rate}");
    }

    #[test]
    fn area_overhead_is_small_for_few_registers() {
        let model = SystemModel::with_defaults().unwrap();
        let total_regs = model.mpu.netlist().dffs().len();
        let three_percent = (total_regs as f64 * 0.03).ceil() as usize;
        let bits: Vec<MpuBit> = MpuBit::all().into_iter().take(three_percent).collect();
        let set = HardenedSet::new(bits, HardeningModel::default());
        let overhead = set.area_overhead(&model);
        assert!(overhead > 0.0);
        assert!(
            overhead < 0.05,
            "hardening 3% of registers costs {:.1}% area",
            overhead * 100.0
        );
    }

    #[test]
    fn scfi_covers_exactly_the_non_config_state() {
        let scfi = ScfiFsm::new();
        let mut rng = StdRng::seed_from_u64(3);
        for bit in MpuBit::all() {
            assert_eq!(scfi.contains(bit), !bit.is_config(), "{bit:?}");
            let v = HardenedVariant::ScfiFsm(scfi.clone());
            if bit.is_config() {
                // Uncovered: always flips, never consumes a draw.
                assert!(v.flip_survives(bit, &mut rng));
            }
        }
        // Covered bits escape the code only at the miss rate.
        let v = HardenedVariant::ScfiFsm(ScfiFsm::with_miss_rate(0.05));
        let survived = (0..10_000)
            .filter(|_| v.flip_survives(MpuBit::PipeValid, &mut rng))
            .count();
        let rate = survived as f64 / 10_000.0;
        assert!((rate - 0.05).abs() < 0.01, "miss rate {rate}");
    }

    #[test]
    fn config_voting_is_deterministic_and_total_on_config_bits() {
        let v = HardenedVariant::DupConfigVote(DupConfigVote::new());
        let mut rng = StdRng::seed_from_u64(4);
        for bit in MpuBit::all() {
            assert_eq!(v.flip_survives(bit, &mut rng), !bit.is_config(), "{bit:?}");
        }
        // No survival draw was consumed: the stream is still at its head.
        let mut twin = StdRng::seed_from_u64(4);
        assert_eq!(rng.gen::<u64>(), twin.gen::<u64>());
    }

    #[test]
    fn variant_area_overheads_are_sane() {
        let model = SystemModel::with_defaults().unwrap();
        let uniform = HardenedVariant::Uniform(HardenedSet::new(
            [MpuBit::Violation, MpuBit::Enable],
            HardeningModel::default(),
        ));
        let scfi = HardenedVariant::ScfiFsm(ScfiFsm::new());
        let vote = HardenedVariant::DupConfigVote(DupConfigVote::new());
        for v in [&uniform, &scfi, &vote] {
            let overhead = v.area_overhead(&model);
            assert!(overhead > 0.0, "{} overhead {overhead}", v.name());
            assert!(overhead < 0.6, "{} overhead {overhead}", v.name());
        }
        // Voting every config register must cost more than hardening two
        // bits uniformly.
        assert!(vote.area_overhead(&model) > uniform.area_overhead(&model));
        assert_eq!(uniform.name(), "uniform");
        assert_eq!(scfi.name(), "scfi_fsm");
        assert_eq!(vote.name(), "dup_config_vote");
    }

    #[test]
    fn top_register_selection_ranks_by_weight() {
        let mut attribution = BTreeMap::new();
        attribution.insert(MpuBit::Violation, 10.0);
        attribution.insert(MpuBit::PipeValid, 5.0);
        attribution.insert(MpuBit::PipeUser, 1.0);
        attribution.insert(MpuBit::Enable, 0.0);
        let (bits, coverage) = select_top_registers(&attribution, 100, 0.02);
        assert_eq!(bits.len(), 2);
        assert!(bits.contains(&MpuBit::Violation));
        assert!(bits.contains(&MpuBit::PipeValid));
        assert!((coverage - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn empty_attribution_selects_nothing_meaningful() {
        let (bits, coverage) = select_top_registers(&BTreeMap::new(), 100, 0.03);
        assert!(bits.is_empty());
        assert_eq!(coverage, 0.0);
    }
}
