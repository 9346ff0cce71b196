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
//! [`Sage::recommend`] searches the full MCF x ACF cross product;
//! [`Sage::recommend_for_class`] restricts the search to what a Table II
//! accelerator class supports, which is how the Fig. 12/13 baselines are
//! produced.
//!
//! [`DramModel`]: sparseflex_accel::DramModel
//! [`conversion_cost`]: sparseflex_mint::conversion_cost

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
