#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `sparseflex-analyze` — workspace-native static analysis (`sflint`).
//!
//! A dependency-free, token-level analyzer for the three rules of this
//! workspace that clippy cannot express: they are about *this*
//! codebase's hot paths, lock graph and cross-crate callers, not about
//! Rust in general.
//!
//! | lint | rule |
//! |---|---|
//! | `alloc-in-hot-path` | no allocation tokens inside fiber-traversal call bodies, `kernels::lanes`, `spgemm::{gustavson_row, rowwise_row}`, the size and conversion-cost formulas SAGE prices every candidate with, the cycle simulators' per-pass and per-beat loops, or the per-entry loops of the format walks (ZVC's set-bit decoder, HiCOO's radix sort) |
//! | `lock-order-cycle` | the Mutex-acquisition graph must stay acyclic (deadlock freedom) |
//! | `pub-without-caller` | a library crate's non-test `pub fn` / `pub const` / `pub static` must be named by another file of the crates, `src/`, `tests/`, `examples/` or `sfbench/src/`; a `pub use`, comment or string is not a caller |
//!
//! The type-aware rules live in clippy instead, configured in the
//! library crate roots and the workspace `clippy.toml`: `unwrap_used` /
//! `expect_used` (panic-free library code), `cast_possible_truncation`
//! (wire encode paths in `serve`) and `disallowed_methods` (threads are
//! spawned only in `kernels::parallel`). Each deliberate exception carries
//! `#[expect(<lint>, reason = "…")]`, which fails as
//! `unfulfilled_lint_expectations` once the exception goes away.
//!
//! Mechanics:
//!
//! - [`lexer`] strips comments/strings while preserving line structure,
//!   tracks brace depth, marks `#[cfg(test)]`/`mod tests` regions, and
//!   records `// sflint::allow(<lint>)` pragmas (own line + next line).
//! - [`framework`] holds the [`Finding`]/[`LockEdge`] records, the
//!   committed [`AnalysisConfig::workspace`] policy, and the runner.
//! - `sflint` fails on any finding; `sflint --check <path>` lints one
//!   file, or every file under a directory as one tree.

pub mod alloc_hot;
pub mod framework;
pub mod lexer;
pub mod lock_order;
mod pub_caller;

pub use framework::{analyze_paths, analyze_workspace, AnalysisConfig, Finding, LockEdge, Report};
pub use lexer::SourceFile;
