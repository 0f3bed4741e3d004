//! Gate-level netlist substrate for the `xlmc` fault-attack evaluation framework.
//!
//! This crate provides everything the cross-level Monte Carlo flow of
//! Li et al., *"Cross-level Monte Carlo Framework for System Vulnerability
//! Evaluation against Fault Attack"* (DAC 2017) needs from a gate-level
//! netlist:
//!
//! * a compact gate graph with a small standard-cell library ([`CellKind`]),
//! * structural construction combinators for datapath logic
//!   ([`builder::BusBuilder`]: comparators, adders, reduction trees, muxes),
//! * sequential-aware graph analysis: topological ordering ([`Topology`])
//!   and time-frame fanin/fanout cones ([`cones`]),
//! * a connectivity-aware grid [`placement`] with radius queries used by the
//!   radiation spot model, and
//! * a per-cell area model used by the hardening overhead study.
//!
//! # Example
//!
//! Build a 2-bit equality comparator feeding a register and query its fanin
//! cone:
//!
//! ```
//! use xlmc_netlist::{Netlist, Topology, cones};
//!
//! # fn main() -> Result<(), xlmc_netlist::NetlistError> {
//! let mut n = Netlist::new();
//! let a0 = n.add_input("a0");
//! let a1 = n.add_input("a1");
//! let b0 = n.add_input("b0");
//! let b1 = n.add_input("b1");
//! let e0 = n.add_gate(xlmc_netlist::CellKind::Xnor, &[a0, b0]);
//! let e1 = n.add_gate(xlmc_netlist::CellKind::Xnor, &[a1, b1]);
//! let eq = n.add_gate(xlmc_netlist::CellKind::And, &[e0, e1]);
//! let q = n.add_dff("eq_q", eq);
//! n.add_output("eq_out", q);
//!
//! let topo = Topology::new(&n)?;
//! // Frame 0 holds the register itself; frame 1 its D-pin logic.
//! let cone = cones::fanin_cone(&n, q, 1);
//! assert!(cone.frame(0).contains(q));
//! assert!(cone.frame(1).contains(eq));
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod cell;
pub mod cones;
pub mod netlist;
pub mod placement;
pub mod program;
pub mod topo;

pub use builder::BusBuilder;
pub use cell::CellKind;
pub use cones::{Cone, ConeSet};
pub use netlist::{Gate, GateId, Netlist, NetlistError, NetlistStats};
pub use placement::{Placement, Point};
pub use program::{Footprint, GateProgram, NetClass, Opcode};
pub use topo::Topology;
