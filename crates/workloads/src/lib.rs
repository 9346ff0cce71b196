//! # sparseflex-workloads
//!
//! Seeded synthetic workload generators mirroring the paper's evaluation
//! suites (§VII-A, Table III, Fig. 14a).
//!
//! The paper evaluates on SuiteSparse, DeepBench, FROSTT and BrainQ
//! datasets. Those files are not redistributable here, so this crate
//! generates uniform-random sparse operands with **identical dimensions
//! and nonzero counts** — a substitution the paper itself justifies: its
//! models "assume a uniform random distribution of the dense values"
//! (§VI), and every downstream quantity (storage bits, streaming cycles,
//! DRAM energy) depends only on `(dims, nnz, dtype)` for unstructured
//! formats.
//!
//! Modules:
//! - [`synth`] — core random generators (exact-nnz and Bernoulli-density),
//!   plus structured patterns (banded, blocked) for the structured-format
//!   extension benches.
//! - [`suite`] — the 13 Table III workloads with their kernel classes.
//! - [`resnet`] — the Fig. 14a ResNet-50/CIFAR-10 convolution layers and
//!   the three pruning strategies of the §VII-D case study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod resnet;
pub mod suite;
pub mod synth;

pub use resnet::{PruningStrategy, ResNetLayer, RESNET_LAYERS};
pub use suite::{KernelClass, WorkloadShape, WorkloadSpec, TABLE_III};
pub use synth::{
    banded_matrix, blocked_matrix, random_dense_matrix, random_matrix, random_tensor3,
};
