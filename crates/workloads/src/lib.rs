//! # ucore-workloads — the paper's three kernels, executable
//!
//! The model is calibrated against three tuned, compute-bound,
//! throughput-driven kernels (Table 3):
//!
//! * **Dense matrix-matrix multiplication (MMM)** — high arithmetic
//!   intensity, simple memory behavior;
//! * **Fast Fourier Transform (FFT)** — complex dataflow and memory
//!   requirements;
//! * **Black-Scholes (BS)** — a rich mixture of arithmetic operators.
//!
//! Where the paper linked against MKL / CUBLAS / CUFFT / Spiral / PARSEC,
//! this crate provides real Rust implementations — one reference and
//! one tuned kernel per workload, bit-identical to each other — so the
//! FLOP counts, byte counts and arithmetic-intensity formulas the model
//! depends on (footnotes 2 and 3 of the paper) are backed by runnable
//! code and verified against executions, not just stated. All kernels
//! use single-precision IEEE floating point, as in the paper.
//!
//! ```
//! use ucore_workloads::{Workload, WorkloadKind};
//!
//! let fft = Workload::fft(1024)?;
//! // Footnote 2: AI(FFT) = 0.3125 * log2 N flops/byte.
//! assert!((fft.arithmetic_intensity() - 3.125).abs() < 1e-12);
//! # Ok::<(), ucore_workloads::WorkloadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom: model code returns typed errors; `unwrap`/`expect`
// and the panicking macros stay legal in `#[cfg(test)]` code only.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod blackscholes;
pub mod fft;
pub mod gen;
pub mod intensity;
pub mod kernel;
pub mod mmm;
pub mod ops;
pub mod throughput;

pub use kernel::{PerfUnit, Workload, WorkloadError, WorkloadKind};
pub use throughput::{measure_throughput, ThroughputSample};
