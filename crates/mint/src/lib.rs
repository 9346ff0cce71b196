//! # sparseflex-mint
//!
//! MINT — *Microarchitecture for Interchangeable compressioN formats for
//! Tensors* (§V of the paper): a general-purpose hardware format
//! converter placed next to the accelerator, so MCF→ACF conversions never
//! round-trip through the host.
//!
//! MINT's efficiency comes from two ideas the paper quantifies:
//!
//! 1. **Merging building blocks.** Instead of `m x a` dedicated
//!    converters, all conversions decompose into a small library of
//!    blocks — prefix-sum units, a pipelined sorting network, a cluster
//!    counter, parallel divide/mod units, comparators and a memory
//!    controller ([`blocks`]). Merging shrinks `MINT_b` (0.95 mm²) to
//!    `MINT_m` (0.41 mm²).
//! 2. **Reusing the accelerator datapath.** Prefix sums run on the PE
//!    array's adders (Fig. 9 shows serial-chain / work-efficient / highly
//!    parallel overlays) and position divisions run on the activation
//!    units, shrinking `MINT_m` to `MINT_mr` (0.23 mm²) ([`variants`]).
//!
//! The [`engine`] module meters the paper's four reference conversions
//! (Fig. 8: CSR→CSC, RLC→COO, CSR→BSR, Dense→CSF) on the building
//! blocks: each returns the converted operand, computed by
//! `sparseflex-formats`, with the per-block cycle and energy usage of its
//! steps, charged from counts. Every other matrix pair is charged the
//! blocks a decode into COO and an encode out of it occupy, and builds
//! its target with no COO hub: CSC→CSR by a counting sort on row ids
//! (Fig. 8c with rows and columns swapped), COO→CSR by
//! `CsrMatrix::from_coo`, ZVC→Dense by scattering the mask's set bits,
//! ZVC→CSC by a counting sort on their columns, and the rest straight
//! from the source's own layout. The [`cost`] module
//! provides the closed-form cost model SAGE queries, and the [`tiled`]
//! module the double-buffered overlap schedule shared by the pipelined
//! runtime and SAGE.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod cost;
pub mod engine;
pub mod report;
pub mod tiled;
pub mod variants;

pub use cost::{conversion_cost, tensor_conversion_cost, ConversionCost};
pub use engine::ConversionEngine;
pub use report::{BlockKind, ConversionReport};
pub use tiled::{added_hardware_cycles, overlap_schedule, split_cycles, OverlapSchedule};
pub use variants::{MintVariant, PrefixSumOverlay};
