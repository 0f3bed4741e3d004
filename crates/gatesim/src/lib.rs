//! Logic, timing and transient-fault simulation on [`xlmc_netlist`] netlists.
//!
//! This crate is the gate-level half of the cross-level flow from Li et al.
//! (DAC 2017): it owns everything that happens *inside* the fault-injection
//! cycle plus the bit-parallel machinery used by the pre-characterization.
//!
//! * [`cycle`] — levelized two-valued cycle simulation of a sequential
//!   netlist (register state in, register state + all node values out),
//! * [`bitparallel`] — 64-cycle-per-word packed evaluation of the
//!   combinational logic over recorded register/input traces, the paper's
//!   "fast bit-parallel calculation" of logic values,
//! * [`signature`] — switching signatures and the bit-flip correlation
//!   `Corr_i(g, rs)` of the paper's Observation 2 / Figure 3,
//! * [`sta`] — static arrival times used to decide transient latching,
//! * [`transient`] — single-event-transient injection at struck cells,
//!   propagation with logical/electrical masking, and latching-window
//!   analysis at the flip-flops (paper §5.3, Figure 6),
//! * [`compiled`] — the 256-lane compiled-program form of [`transient`]:
//!   the netlist's levelized SoA [`xlmc_netlist::GateProgram`] evaluated
//!   as a straight-line opcode loop with `[u64; 4]` lanes, bit-identical
//!   per lane to the scalar kernel,
//! * [`glitch`] — clock-glitch (timing-violation) fault modeling, the
//!   second attack technique of the paper's holistic model.
//!
//! # Example
//!
//! Simulate one cycle of a registered AND gate:
//!
//! ```
//! use xlmc_netlist::{CellKind, Netlist};
//! use xlmc_gatesim::cycle::CycleSim;
//!
//! # fn main() -> Result<(), xlmc_netlist::NetlistError> {
//! let mut n = Netlist::new();
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_gate(CellKind::And, &[a, b]);
//! n.add_dff("q", g);
//!
//! let sim = CycleSim::new(&n)?;
//! let cycle = sim.eval(&n, &[false], &[true, true]);
//! assert_eq!(cycle.next_state(), &[true]);
//! # Ok(())
//! # }
//! ```

pub mod bitparallel;
pub mod compiled;
pub mod cycle;
pub mod glitch;
pub mod signature;
pub mod sta;
pub mod transient;

pub use compiled::{
    BatchLane, CompiledStrikeOutcome, CompiledTransientScratch, CycleGroup, WideMask, LANE_WORDS,
    WIDE_LANES,
};
pub use cycle::{CycleSim, CycleValues};
pub use glitch::GlitchSim;
pub use signature::{correlation, SwitchingSignature};
pub use sta::Sta;
pub use transient::{StrikeOutcome, TransientConfig, TransientScratch, TransientSim};
