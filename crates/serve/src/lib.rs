//! # sparseflex-serve
//!
//! The multi-tenant serving layer in front of the `sparseflex-core`
//! planner/pipeline stack — the "sustained heterogeneous traffic" regime
//! where the paper's per-workload format selection (SAGE choosing an
//! MCF/ACF pair per job, MINT converting in hardware) actually pays off.
//!
//! Two modules:
//!
//! - [`wire`] — the compact binary frame format jobs and results travel
//!   in (version 2): a 16-byte header (magic, version, kind — 2 job, 3
//!   result — and one FNV-1a body checksum) followed by one body. A job
//!   body writes both operands inline (format tag, shape, index arrays
//!   and IEEE-754 values); a result body is the job id and the output's
//!   shape and values. No frame embeds another. Round-trips every matrix
//!   format in the workspace losslessly and rejects truncated or garbled
//!   frames, and shapes past its cell bound, with typed errors.
//! - [`service`] — [`FlexService`]: a bounded submission queue with
//!   admission control (queue-full backpressure + per-tenant in-flight
//!   caps), per-tenant weighted-fair stride scheduling with three
//!   priority classes, and a pool of persistent worker threads (virtual
//!   accelerator instances) with work stealing between per-worker
//!   deques, all sharing one plan cache sharded by key hash.
//!
//! ## Example
//!
//! ```
//! use sparseflex_core::FlexSystem;
//! use sparseflex_formats::{CooMatrix, DataType, MatrixData, MatrixFormat, SparseMatrix};
//! use sparseflex_serve::{wire, FlexService, Priority, ServeConfig, WireJob};
//!
//! let service = FlexService::start(FlexSystem::default(), ServeConfig::default()).unwrap();
//! let a = CooMatrix::from_triplets(4, 4, vec![(0, 0, 1.0), (2, 3, 2.0)]).unwrap();
//! let b = CooMatrix::from_triplets(4, 3, vec![(0, 1, 3.0), (3, 2, 4.0)]).unwrap();
//! let job = WireJob {
//!     tenant: 1,
//!     priority: Priority::Normal,
//!     dtype: DataType::Fp32,
//!     a: MatrixData::encode(&a, &MatrixFormat::Csr).unwrap(),
//!     b: MatrixData::encode(&b, &MatrixFormat::Zvc).unwrap(),
//! };
//! // Jobs travel as bytes: encode → submit → decode the result frame.
//! let frame = wire::encode_job(&job).unwrap();
//! let ticket = service.submit_frame(&frame).unwrap();
//! let outcome = ticket.wait().unwrap();
//! let result = wire::decode_result(&outcome.result_frame).unwrap();
//! assert_eq!(result.output.rows(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::cast_possible_truncation)]

pub mod service;
pub mod wire;

pub use service::{
    FlexService, JobOutcome, JobTicket, Priority, ServeConfig, ServeError, ServiceStats,
    StartError, SubmitError, TenantStats,
};
pub use wire::{WireError, WireJob, WireResult};
