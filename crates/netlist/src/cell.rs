//! The standard-cell library: gate kinds, evaluation, area and delay models.

/// The kind of a gate in the netlist.
///
/// Logic gates (`And`, `Or`, ...) accept two or more fanins; `Buf` and `Not`
/// take exactly one; [`CellKind::Mux`] takes exactly three fanins ordered
/// `[sel, a, b]` and selects `a` when `sel` is low, `b` when `sel` is high.
/// [`CellKind::Dff`] is the sequential boundary: its single fanin is the `D`
/// pin, and its "output value" during a cycle is the register state latched
/// at the previous clock edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Primary input; no fanins.
    Input,
    /// Constant driver; no fanins.
    Const(bool),
    /// Buffer (identity); one fanin.
    Buf,
    /// Inverter; one fanin.
    Not,
    /// N-ary AND, N >= 2.
    And,
    /// N-ary OR, N >= 2.
    Or,
    /// N-ary NAND, N >= 2.
    Nand,
    /// N-ary NOR, N >= 2.
    Nor,
    /// N-ary XOR (odd parity), N >= 2.
    Xor,
    /// N-ary XNOR (even parity), N >= 2.
    Xnor,
    /// 2:1 multiplexer; fanins `[sel, a, b]`, output `sel ? b : a`.
    Mux,
    /// D flip-flop; one fanin (the D pin). Sequential boundary.
    Dff,
    /// Named primary output marker; one fanin, combinationally transparent.
    Output,
}

impl CellKind {
    /// Whether this kind is a sequential element.
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }

    /// Whether this kind is a source (drives a value without fanins).
    pub fn is_source(self) -> bool {
        matches!(self, CellKind::Input | CellKind::Const(_))
    }

    /// Whether this kind is purely combinational logic (has fanins, not a DFF).
    pub fn is_combinational(self) -> bool {
        !self.is_source() && !self.is_sequential()
    }

    /// The number of fanins this kind requires, or `None` when variadic
    /// (`>= 2`).
    pub fn fixed_arity(self) -> Option<usize> {
        match self {
            CellKind::Input | CellKind::Const(_) => Some(0),
            CellKind::Buf | CellKind::Not | CellKind::Dff | CellKind::Output => Some(1),
            CellKind::Mux => Some(3),
            CellKind::And
            | CellKind::Or
            | CellKind::Nand
            | CellKind::Nor
            | CellKind::Xor
            | CellKind::Xnor => None,
        }
    }

    /// Evaluate the combinational function of this cell on boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics when called on a source or sequential kind, or when `inputs`
    /// does not match the cell arity. Use only on combinational kinds.
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            CellKind::Buf | CellKind::Output => inputs[0],
            CellKind::Not => !inputs[0],
            CellKind::And => inputs.iter().all(|&b| b),
            CellKind::Or => inputs.iter().any(|&b| b),
            CellKind::Nand => !inputs.iter().all(|&b| b),
            CellKind::Nor => !inputs.iter().any(|&b| b),
            CellKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            CellKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            CellKind::Mux => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
            CellKind::Input | CellKind::Const(_) | CellKind::Dff => {
                panic!("CellKind::eval called on non-combinational kind {self:?}")
            }
        }
    }

    /// Evaluate the cell bit-parallel on 64-cycle packed words.
    ///
    /// Each word carries the value of one fanin across 64 consecutive cycles;
    /// the result packs the cell output for the same cycles. This is the
    /// kernel behind the paper's "fast bit-parallel calculation" of switching
    /// signatures.
    ///
    /// # Panics
    ///
    /// Panics on non-combinational kinds (same contract as [`CellKind::eval`]).
    pub fn eval_words(self, inputs: &[u64]) -> u64 {
        match self {
            CellKind::Buf | CellKind::Output => inputs[0],
            CellKind::Not => !inputs[0],
            CellKind::And => inputs.iter().fold(!0u64, |acc, &w| acc & w),
            CellKind::Or => inputs.iter().fold(0u64, |acc, &w| acc | w),
            CellKind::Nand => !inputs.iter().fold(!0u64, |acc, &w| acc & w),
            CellKind::Nor => !inputs.iter().fold(0u64, |acc, &w| acc | w),
            CellKind::Xor => inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            CellKind::Xnor => !inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            CellKind::Mux => (!inputs[0] & inputs[1]) | (inputs[0] & inputs[2]),
            CellKind::Input | CellKind::Const(_) | CellKind::Dff => {
                panic!("CellKind::eval_words called on non-combinational kind {self:?}")
            }
        }
    }

    /// Nominal cell area in arbitrary units (roughly NAND2-equivalents),
    /// used by the hardening overhead study.
    pub fn area(self) -> f64 {
        match self {
            CellKind::Input | CellKind::Const(_) | CellKind::Output => 0.0,
            CellKind::Buf => 0.7,
            CellKind::Not => 0.5,
            CellKind::And | CellKind::Or => 1.2,
            CellKind::Nand | CellKind::Nor => 1.0,
            CellKind::Xor | CellKind::Xnor => 2.0,
            CellKind::Mux => 2.2,
            CellKind::Dff => 4.5,
        }
    }

    /// Nominal propagation delay in picoseconds for the static timing model
    /// used by transient latching analysis.
    pub fn delay_ps(self) -> f64 {
        match self {
            CellKind::Input | CellKind::Const(_) | CellKind::Output => 0.0,
            CellKind::Buf => 25.0,
            CellKind::Not => 15.0,
            CellKind::And | CellKind::Or => 35.0,
            CellKind::Nand | CellKind::Nor => 30.0,
            CellKind::Xor | CellKind::Xnor => 55.0,
            CellKind::Mux => 50.0,
            // Clock-to-Q; DFF outputs launch at the clock edge.
            CellKind::Dff => 40.0,
        }
    }
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CellKind::Input => "input",
            CellKind::Const(false) => "const0",
            CellKind::Const(true) => "const1",
            CellKind::Buf => "buf",
            CellKind::Not => "not",
            CellKind::And => "and",
            CellKind::Or => "or",
            CellKind::Nand => "nand",
            CellKind::Nor => "nor",
            CellKind::Xor => "xor",
            CellKind::Xnor => "xnor",
            CellKind::Mux => "mux",
            CellKind::Dff => "dff",
            CellKind::Output => "output",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_classification() {
        assert_eq!(CellKind::Input.fixed_arity(), Some(0));
        assert_eq!(CellKind::Not.fixed_arity(), Some(1));
        assert_eq!(CellKind::Mux.fixed_arity(), Some(3));
        assert_eq!(CellKind::And.fixed_arity(), None);
        assert!(CellKind::Dff.is_sequential());
        assert!(CellKind::Input.is_source());
        assert!(CellKind::Xor.is_combinational());
        assert!(!CellKind::Dff.is_combinational());
    }

    #[test]
    fn eval_basic_gates() {
        assert!(CellKind::And.eval(&[true, true, true]));
        assert!(!CellKind::And.eval(&[true, false, true]));
        assert!(CellKind::Or.eval(&[false, true]));
        assert!(!CellKind::Or.eval(&[false, false]));
        assert!(CellKind::Nand.eval(&[true, false]));
        assert!(!CellKind::Nand.eval(&[true, true]));
        assert!(CellKind::Nor.eval(&[false, false]));
        assert!(CellKind::Xor.eval(&[true, false, false]));
        assert!(!CellKind::Xor.eval(&[true, true]));
        assert!(CellKind::Xnor.eval(&[true, true]));
        assert!(CellKind::Not.eval(&[false]));
        assert!(CellKind::Buf.eval(&[true]));
    }

    #[test]
    fn eval_mux_selects() {
        // sel=0 -> a, sel=1 -> b
        assert!(!CellKind::Mux.eval(&[false, false, true]));
        assert!(CellKind::Mux.eval(&[true, false, true]));
        assert!(CellKind::Mux.eval(&[false, true, false]));
    }

    #[test]
    fn eval_words_matches_scalar_eval() {
        // Exhaustively compare packed and scalar evaluation for 3-input
        // combinations of every variadic kind plus mux.
        let kinds = [
            CellKind::And,
            CellKind::Or,
            CellKind::Nand,
            CellKind::Nor,
            CellKind::Xor,
            CellKind::Xnor,
            CellKind::Mux,
        ];
        for kind in kinds {
            let mut words = [0u64; 3];
            let mut expect = 0u64;
            for pattern in 0..8u64 {
                let bits = [pattern & 1 != 0, pattern & 2 != 0, pattern & 4 != 0];
                for (i, w) in words.iter_mut().enumerate() {
                    if bits[i] {
                        *w |= 1 << pattern;
                    }
                }
                if kind.eval(&bits) {
                    expect |= 1 << pattern;
                }
            }
            let got = kind.eval_words(&words);
            // Only the low 8 lanes carry patterns.
            assert_eq!(got & 0xff, expect & 0xff, "kind {kind}");
        }
    }

    #[test]
    fn area_and_delay_are_positive_for_logic() {
        for kind in [
            CellKind::Buf,
            CellKind::Not,
            CellKind::And,
            CellKind::Or,
            CellKind::Nand,
            CellKind::Nor,
            CellKind::Xor,
            CellKind::Xnor,
            CellKind::Mux,
            CellKind::Dff,
        ] {
            assert!(kind.area() > 0.0, "{kind}");
            assert!(kind.delay_ps() > 0.0, "{kind}");
        }
        assert_eq!(CellKind::Input.area(), 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(CellKind::Nand.to_string(), "nand");
        assert_eq!(CellKind::Const(true).to_string(), "const1");
        assert_eq!(CellKind::Dff.to_string(), "dff");
    }
}
