//! # sparseflex-sage
//!
//! SAGE — *Sparsity formAt Generation Engine* (§VI of the paper): an
//! analytical model that predicts which MCF and ACF combination yields
//! the lowest energy-delay product (EDP) for a workload, and configures
//! MINT and the accelerator accordingly.
//!
//! Inputs (Fig. 1b): workload size, datatype, density region, MINT
//! conversion cost, and accelerator hardware parameters. Outputs: the
//! chosen MCF/ACF per operand plus a full cost breakdown.
//!
//! SAGE composes three models:
//!
//! - **Cost model** — DRAM transfer cycles and energy, proportional to
//!   the MCF's compressed size (`sparseflex-accel`'s [`DramModel`] over
//!   the `sparseflex-formats` size model).
//! - **Conversion model** — MINT building-block occupancy
//!   (`sparseflex-mint`'s [`conversion_cost`]), overlapped with the DRAM
//!   stream.
//! - **Performance model** — WS-accelerator compute cycles per ACF
//!   (`sparseflex-accel`'s analytic layer, "similar to Fig. 6").
//!
//! SAGE decides in one search ([`search`]): it prices MCF pairs crossed
//! with ACF pairs and keeps the lowest EDP. [`Sage::recommend`] is that
//! search over this work's space, the `Flex_Flex_HW` class
//! ([`flex_flex_hw`]). [`Sage::recommend_for_class`] runs it over a
//! Table II class's pairs and conversion support, which is how the
//! Fig. 12/13 baselines are produced. [`Sage::recommend_with_fixed_mcf`]
//! pins the MCFs (§VI), and [`Sage::recommend_structured`] pins them to
//! the operands' measured most-compact formats.
//!
//! [`DramModel`]: sparseflex_accel::DramModel
//! [`conversion_cost`]: sparseflex_mint::conversion_cost
//! [`flex_flex_hw`]: sparseflex_accel::taxonomy::AcceleratorClass::flex_flex_hw

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod eval;
pub mod search;
pub mod structured;
pub mod tensor_model;
pub mod workload;

pub use dataflow::choose_spgemm_algo;
pub use eval::{Evaluation, Sage};
pub use search::{FormatChoice, Recommendation};
pub use workload::{SageKernel, SageWorkload, TensorWorkload};
