//! # sparseflex-accel
//!
//! Cycle-level functional simulator of the paper's accelerator template
//! (§IV): an array of PEs with vector MAC units connected to a global
//! scratchpad by a broadcast bus, running a **weight-stationary** (WS)
//! dataflow — columns of matrix `B` stay resident in PE buffers while
//! matrix `A` streams in.
//!
//! The paper's two microarchitecture extensions are modelled faithfully:
//!
//! 1. **Flexible buffer partitioning** — each PE buffer entry can hold
//!    operand data *or* format metadata, so the same PE executes Dense,
//!    COO, CSR and CSC ACFs ([`exec`]).
//! 2. **Metadata comparators + one-hot-to-binary encoding** for index
//!    matching of sparse stationary operands.
//!
//! Three model layers are provided and cross-validated by tests:
//!
//! - [`exec`] — cycle-accurate functional simulation: streams each
//!   operand in place through its ACF, beat by beat, and produces the
//!   actual output matrix and exact cycle counts. Reproduces the Fig. 6
//!   walkthrough exactly (8 / 3 / 4 cycles).
//! - [`model`] — analytic cycle/energy estimates from *statistics*
//!   (dims + nnz only; the layer SAGE uses), checked against `exec`.
//! - [`taxonomy`] — the Table I / Table II accelerator classes
//!   (`Fix_Fix_None` … `Flex_Flex_HW`) with their MCF/ACF freedom.
//!
//! Supporting models: [`energy`] (Horowitz-style per-op energies, DRAM ≈
//! 6400x an int32 add as the paper cites), [`dram`] (bandwidth + energy of
//! MCF transfers), [`area`] (PE area, +10% extended-PE overhead of
//! Fig. 7b).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod bus;
pub mod config;
pub mod dram;
pub mod energy;
pub mod exec;
pub mod model;
pub mod taxonomy;

pub use bus::{BusPacking, StreamBeats};
pub use config::AccelConfig;
pub use dram::DramModel;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use exec::{simulate_spgemm, simulate_ws, ActivityCounts, CycleBreakdown, SimResult};
pub use model::AnalyticCycles;
pub use taxonomy::{AcceleratorClass, ConversionSupport, FormatFreedom};
