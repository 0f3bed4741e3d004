//! Switching signatures and bit-flip correlation (paper §4, Observation 2).
//!
//! The switching signature `ss(g)` of a node is a binary sequence with
//! `ss_c(g) = 1` iff the logic value of `g` switches between cycle `c-1` and
//! cycle `c` (`ss_0 = 0`). The bit-flip correlation between a node `g` in the
//! `i`-th unrolled frame and a responding signal `rs` is
//!
//! ```text
//! Corr_i(g, rs) = | ss(g) & (ss(rs) << i) |  /  | ss(g) |
//! ```
//!
//! where `<<` aligns the responding-signal signature with the `i`-cycle
//! propagation latency and `|·|` is the Hamming weight — exactly the worked
//! example of the paper's Figure 3.

use xlmc_netlist::GateId;

use crate::bitparallel::PackedTraces;

/// A packed switching signature over a fixed number of cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchingSignature {
    words: Vec<u64>,
    cycles: usize,
}

impl SwitchingSignature {
    /// Derive the signature from a per-cycle value sequence.
    pub fn from_values(values: &[bool]) -> Self {
        let cycles = values.len();
        let mut words = vec![0u64; cycles.div_ceil(64).max(1)];
        for c in 1..cycles {
            if values[c] != values[c - 1] {
                words[c / 64] |= 1 << (c % 64);
            }
        }
        Self { words, cycles }
    }

    /// Derive the signature of one gate from packed traces.
    pub fn from_traces(traces: &PackedTraces, id: GateId) -> Self {
        let cycles = traces.cycles();
        let v = traces.trace(id);
        let mut words = vec![0u64; v.len()];
        // ss = v ^ (v delayed by one cycle); bit c compares cycle c with c-1.
        let mut carry = 0u64;
        for (w, &word) in words.iter_mut().zip(v.iter()) {
            let delayed = (word << 1) | carry;
            carry = word >> 63;
            *w = word ^ delayed;
        }
        // ss_0 is defined to be 0, and tail bits beyond `cycles` are cleared.
        if cycles > 0 {
            words[0] &= !1;
            let tail = cycles % 64;
            if tail != 0 {
                let last = (cycles - 1) / 64;
                words[last] &= (1u64 << tail) - 1;
            }
        }
        Self { words, cycles }
    }

    /// Parse a signature from a left-to-right binary string
    /// (leftmost character = cycle 0), as written in the paper's Figure 3.
    ///
    /// # Panics
    ///
    /// Panics on characters other than `0` and `1`.
    pub fn from_bit_string(s: &str) -> Self {
        let values: Vec<bool> = s
            .chars()
            .map(|c| match c {
                '0' => false,
                '1' => true,
                other => panic!("invalid signature character {other:?}"),
            })
            .collect();
        let cycles = values.len();
        let mut words = vec![0u64; cycles.div_ceil(64).max(1)];
        for (c, &v) in values.iter().enumerate() {
            if v {
                words[c / 64] |= 1 << (c % 64);
            }
        }
        Self { words, cycles }
    }

    /// Number of cycles covered.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Hamming weight `|ss|` (number of switching cycles).
    pub fn weight(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the node switches in cycle `c`.
    pub fn bit(&self, c: usize) -> bool {
        c < self.cycles && self.words[c / 64] >> (c % 64) & 1 == 1
    }

    /// The signature shifted so that `shifted.bit(c) == self.bit(c + i)`,
    /// aligning this signature with an `i`-cycle propagation latency.
    /// Negative `i` shifts the other way (fanout-side frames).
    pub fn aligned(&self, i: i32) -> Self {
        let mut out = Self {
            words: vec![0; self.words.len()],
            cycles: self.cycles,
        };
        for c in 0..self.cycles {
            let src = c as i64 + i as i64;
            if src >= 0 && (src as usize) < self.cycles && self.bit(src as usize) {
                out.words[c / 64] |= 1 << (c % 64);
            }
        }
        out
    }

    /// Hamming weight of `self & other`.
    ///
    /// # Panics
    ///
    /// Panics when the cycle counts differ.
    pub fn and_weight(&self, other: &Self) -> u32 {
        assert_eq!(self.cycles, other.cycles, "signature length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }
}

/// The bit-flip correlation `Corr_i(g, rs)` of the paper.
///
/// `g_ss` is the switching signature of the candidate node in unrolled frame
/// `i`, `rs_ss` the signature of the responding signal. Returns 0 when the
/// candidate never switches (the paper's formula is undefined there; a node
/// that never toggles carries no correlation evidence).
pub fn correlation(g_ss: &SwitchingSignature, rs_ss: &SwitchingSignature, i: i32) -> f64 {
    let weight = g_ss.weight();
    if weight == 0 {
        return 0.0;
    }
    aligned_correlation(g_ss, weight, &rs_ss.aligned(i))
}

/// [`correlation`] with its per-frame and per-node parts precomputed:
/// `rs_aligned` is `rs_ss.aligned(i)` and `g_weight` is `g_ss.weight()`.
/// Sweeping many nodes over one frame builds the aligned signature once.
pub fn aligned_correlation(
    g_ss: &SwitchingSignature,
    g_weight: u32,
    rs_aligned: &SwitchingSignature,
) -> f64 {
    if g_weight == 0 {
        return 0.0;
    }
    f64::from(g_ss.and_weight(rs_aligned)) / f64::from(g_weight)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_example_reproduced_exactly() {
        // Logic values and signatures copied from the paper's Figure 3.
        let rs_logic = [true, false, false, false, true, false, false, true];
        let rs = SwitchingSignature::from_values(&rs_logic);
        assert_eq!(rs, SwitchingSignature::from_bit_string("01001101"));

        let g1 = SwitchingSignature::from_bit_string("00101101");
        let g2 = SwitchingSignature::from_bit_string("01100111");
        let g3 = SwitchingSignature::from_bit_string("01001111");

        let c1 = correlation(&g1, &rs, 0);
        let c2 = correlation(&g2, &rs, 0);
        let c3 = correlation(&g3, &rs, 1);
        assert!((c1 - 3.0 / 4.0).abs() < 1e-12, "Corr0(g1) = {c1}");
        assert!((c2 - 3.0 / 5.0).abs() < 1e-12, "Corr0(g2) = {c2}");
        assert!((c3 - 2.0 / 5.0).abs() < 1e-12, "Corr1(g3) = {c3}");
    }

    #[test]
    fn from_values_marks_transitions() {
        let ss = SwitchingSignature::from_values(&[false, true, true, false]);
        assert!(!ss.bit(0));
        assert!(ss.bit(1));
        assert!(!ss.bit(2));
        assert!(ss.bit(3));
        assert_eq!(ss.weight(), 2);
    }

    #[test]
    fn from_traces_matches_from_values_across_words() {
        use xlmc_netlist::Netlist;
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let cycles = 150usize;
        let values: Vec<bool> = (0..cycles).map(|c| (c * c + c / 3) % 4 < 2).collect();
        let mut traces = crate::bitparallel::PackedTraces::zeroed(&n, cycles);
        traces.set_trace(a, &values);
        let ss1 = SwitchingSignature::from_traces(&traces, a);
        let ss2 = SwitchingSignature::from_values(&values);
        for c in 0..cycles {
            assert_eq!(ss1.bit(c), ss2.bit(c), "cycle {c}");
        }
        assert_eq!(ss1.weight(), ss2.weight());
    }

    #[test]
    fn aligned_shifts_forward_and_backward() {
        let ss = SwitchingSignature::from_bit_string("00100000");
        // bit(2) set; aligned(1).bit(1) should see it.
        assert!(ss.aligned(1).bit(1));
        assert!(!ss.aligned(1).bit(2));
        // aligned(-1).bit(3) sees bit(2).
        assert!(ss.aligned(-1).bit(3));
        // Shifting past the ends drops bits.
        assert_eq!(ss.aligned(5).weight(), 0);
        assert_eq!(ss.aligned(-8).weight(), 0);
    }

    #[test]
    fn correlation_of_identical_signatures_is_one() {
        let ss = SwitchingSignature::from_bit_string("0110101");
        assert!((correlation(&ss, &ss, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_of_silent_node_is_zero() {
        let g = SwitchingSignature::from_bit_string("00000000");
        let rs = SwitchingSignature::from_bit_string("01001101");
        assert_eq!(correlation(&g, &rs, 0), 0.0);
    }

    #[test]
    fn correlation_is_bounded() {
        let g = SwitchingSignature::from_bit_string("0110011010");
        let rs = SwitchingSignature::from_bit_string("1010110011");
        for i in -5..=5 {
            let c = correlation(&g, &rs, i);
            assert!((0.0..=1.0).contains(&c), "Corr_{i} = {c}");
        }
    }
}
