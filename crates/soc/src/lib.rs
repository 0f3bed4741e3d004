//! The processor substrate of the `xlmc` framework: a from-scratch
//! microcontroller SoC with both RTL-level and gate-level views of its
//! security-critical module.
//!
//! The DAC 2017 paper evaluates its cross-level Monte Carlo flow on a
//! commercial processor whose MPU enforces a memory-access policy. This
//! crate is the open substitute (see DESIGN.md for the substitution
//! argument): a 32-bit core with privilege modes and traps ([`core`]), a
//! bus shared with a DMA peripheral ([`dma`]), and a multi-region MPU that
//! checks every data access — modeled twice, functionally ([`mpu`]) and as
//! an elaborated gate netlist ([`mpu_synth`]), kept provably consistent by
//! an equivalence test.
//!
//! * [`isa`] / [`asm`] — the instruction set and a small assembler,
//! * [`core`] — the CPU core,
//! * [`mpu`] — the functional MPU (configuration, pipeline, responding
//!   signal, sticky status) with bit-granular state access for fault
//!   injection,
//! * [`mpu_synth`] — the gate-level elaboration plus the DFF ↔ architectural
//!   bit map (the cross-level register map),
//! * [`dma`] — the DMA bus master,
//! * [`soc`] — the composed system with checkpoint/restore,
//! * [`golden`] — golden-run recording (checkpoints, MPU state and stimulus
//!   traces, access trace),
//! * [`workloads`] — the illegal-write / illegal-read attack benchmarks and
//!   the synthetic pre-characterization stimulus.
//!
//! # Example
//!
//! Run the illegal-write benchmark and observe the security mechanism catch
//! it:
//!
//! ```
//! use xlmc_soc::golden::GoldenRun;
//! use xlmc_soc::workloads;
//!
//! let w = workloads::illegal_write();
//! let run = GoldenRun::record(&w.program, 5_000, 32);
//! assert!(run.first_violation_cycle().is_some());
//! assert!(!w.goal.succeeded(&run.final_soc));
//! ```

pub mod asm;
pub mod core;
pub mod dma;
pub mod golden;
pub mod isa;
pub mod mpu;
pub mod mpu_synth;
pub mod soc;
pub mod workloads;

pub use golden::{GoldenRun, MpuStop};
pub use mpu::{AccessKind, AccessReq, CfgWrite, MpuBit, MpuBitMask, MpuConfig, MpuState};
pub use mpu_synth::MpuNetlist;
pub use soc::{AccessRecord, Master, Soc, StepEvents};
pub use workloads::{AttackGoal, Workload};
