//! Workload characterization: operation counts, byte counts and units.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors raised when describing or running workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// FFT sizes must be powers of two (and at least 2) for the
    /// radix-based plans.
    NotPowerOfTwo {
        /// The rejected size.
        size: usize,
    },
    /// A dimension that must be non-zero was zero.
    ZeroSize {
        /// Name of the dimension.
        what: &'static str,
    },
    /// Mismatched buffer lengths passed to a kernel.
    LengthMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        actual: usize,
    },
    /// An element index outside a matrix or buffer.
    IndexOutOfBounds {
        /// The rejected row (or flat) index.
        row: usize,
        /// The rejected column index (0 for flat buffers).
        col: usize,
        /// Rows (or length) of the indexed object.
        rows: usize,
        /// Columns of the indexed object (1 for flat buffers).
        cols: usize,
    },
    /// Two operands whose shapes must agree did not.
    ShapeMismatch {
        /// Shape of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        right: (usize, usize),
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::NotPowerOfTwo { size } => {
                write!(f, "size {size} is not a power of two >= 2")
            }
            WorkloadError::ZeroSize { what } => write!(f, "{what} must be non-zero"),
            WorkloadError::LengthMismatch { expected, actual } => {
                write!(f, "buffer length {actual} does not match expected {expected}")
            }
            WorkloadError::IndexOutOfBounds { row, col, rows, cols } => {
                write!(f, "index ({row}, {col}) is outside a {rows}x{cols} matrix")
            }
            WorkloadError::ShapeMismatch { left, right } => {
                write!(
                    f,
                    "shape {}x{} does not match shape {}x{}",
                    left.0, left.1, right.0, right.1
                )
            }
        }
    }
}

impl Error for WorkloadError {}

/// The three kernel families of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Dense matrix-matrix multiplication.
    Mmm,
    /// Fast Fourier Transform (complex, single precision).
    Fft,
    /// Black-Scholes option pricing.
    BlackScholes,
}

impl WorkloadKind {
    /// All kernel families, in the paper's order.
    pub const ALL: [WorkloadKind; 3] =
        [WorkloadKind::Mmm, WorkloadKind::Fft, WorkloadKind::BlackScholes];

    /// The abbreviation used throughout the paper.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Mmm => "MMM",
            WorkloadKind::Fft => "FFT",
            WorkloadKind::BlackScholes => "BS",
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The unit a workload's throughput is reported in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PerfUnit {
    /// Billions of floating-point operations per second (MMM; for FFT
    /// these are the paper's *pseudo*-GFLOP/s based on `5N log2 N`).
    GflopsPerSec,
    /// Millions of option pricings per second (Black-Scholes).
    MoptsPerSec,
}

impl fmt::Display for PerfUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PerfUnit::GflopsPerSec => "GFLOP/s",
            PerfUnit::MoptsPerSec => "Mopts/s",
        })
    }
}

/// A concrete workload instance: a kernel family plus its size parameter.
///
/// The *work unit* is one kernel invocation: one `N×N` matrix product for
/// MMM, one `N`-point transform for FFT, one option pricing for BS. All
/// kernels are throughput-driven (many independent work units), which is
/// what makes them compute-bound on real devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Workload {
    kind: WorkloadKind,
    size: usize,
}

/// Bytes of a single-precision float.
const F32_BYTES: f64 = 4.0;

/// The paper's compulsory traffic for one Black-Scholes option.
pub const BS_BYTES_PER_OPTION: f64 = 10.0;

/// The matrix blocking the paper assumes when computing MMM compulsory
/// bandwidth ("square matrix inputs blocked at N = 128").
pub const MMM_PAPER_BLOCK: usize = 128;

impl Workload {
    /// An `n × n` dense matrix multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ZeroSize`] for `n = 0`.
    pub fn mmm(n: usize) -> Result<Self, WorkloadError> {
        if n == 0 {
            return Err(WorkloadError::ZeroSize { what: "matrix dimension" });
        }
        Ok(Workload { kind: WorkloadKind::Mmm, size: n })
    }

    /// An `n`-point complex FFT.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::NotPowerOfTwo`] unless `n` is a power of
    /// two and at least 2.
    pub fn fft(n: usize) -> Result<Self, WorkloadError> {
        if n < 2 || !n.is_power_of_two() {
            return Err(WorkloadError::NotPowerOfTwo { size: n });
        }
        Ok(Workload { kind: WorkloadKind::Fft, size: n })
    }

    /// An `N × N` dense matrix multiplication with the dimension
    /// checked at compile time.
    ///
    /// The `N > 0` check is evaluated during const evaluation (an
    /// invalid `N` fails the build), so this constructor is infallible
    /// at runtime — prefer it over [`Workload::mmm`] wherever the
    /// dimension is a constant.
    pub const fn mmm_const<const N: usize>() -> Self {
        const { assert!(N > 0, "matrix dimension must be nonzero") };
        Workload { kind: WorkloadKind::Mmm, size: N }
    }

    /// An `N`-point complex FFT with the size checked at compile time.
    ///
    /// The power-of-two check is evaluated during const evaluation (an
    /// invalid `N` fails the build), so this constructor is infallible
    /// at runtime — prefer it over [`Workload::fft`] wherever the size
    /// is a constant.
    pub const fn fft_const<const N: usize>() -> Self {
        const {
            assert!(N >= 2 && N.is_power_of_two(), "FFT size must be a power of two >= 2");
        };
        Workload { kind: WorkloadKind::Fft, size: N }
    }

    /// Black-Scholes option pricing (size is per-option, so 1).
    pub fn black_scholes() -> Self {
        Workload { kind: WorkloadKind::BlackScholes, size: 1 }
    }

    /// The kernel family.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// The size parameter (`N` for MMM/FFT, 1 for BS).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Floating-point operations in one work unit:
    ///
    /// * MMM: `2N³` (a multiply and an add per inner-loop step);
    /// * FFT: `5N·log2 N` (the standard pseudo-FLOP convention the paper
    ///   uses for its "pseudo-GFLOP/s");
    /// * BS: the operation count of our pricing pipeline (see
    ///   [`crate::blackscholes::FLOPS_PER_OPTION`]).
    pub fn flops_per_unit(&self) -> f64 {
        match self.kind {
            WorkloadKind::Mmm => 2.0 * (self.size as f64).powi(3),
            WorkloadKind::Fft => {
                5.0 * self.size as f64 * (self.size as f64).log2()
            }
            WorkloadKind::BlackScholes => crate::blackscholes::FLOPS_PER_OPTION,
        }
    }

    /// Compulsory off-chip traffic for one work unit, in bytes:
    ///
    /// * MMM: `2·4N²` — read one input tile and write one output tile per
    ///   blocked product, as in footnote 3;
    /// * FFT: `16N` — read and write `N` complex singles, as in
    ///   footnote 2;
    /// * BS: 10 bytes per option, as in Section 6.
    pub fn compulsory_bytes_per_unit(&self) -> f64 {
        match self.kind {
            WorkloadKind::Mmm => 2.0 * F32_BYTES * (self.size as f64).powi(2),
            WorkloadKind::Fft => 4.0 * F32_BYTES * self.size as f64,
            WorkloadKind::BlackScholes => BS_BYTES_PER_OPTION,
        }
    }

    /// Arithmetic intensity in FLOPs per byte (for BS: options per byte,
    /// scaled by the per-option FLOP count).
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops_per_unit() / self.compulsory_bytes_per_unit()
    }

    /// Compulsory bytes per FLOP — the reciprocal of
    /// [`arithmetic_intensity`](Self::arithmetic_intensity), the form the
    /// paper quotes (`0.32 bytes/flop` for FFT-1024, `0.0313` for MMM
    /// blocked at 128).
    pub fn bytes_per_flop(&self) -> f64 {
        1.0 / self.arithmetic_intensity()
    }

    /// The unit throughput is reported in for this workload.
    pub fn perf_unit(&self) -> PerfUnit {
        match self.kind {
            WorkloadKind::Mmm | WorkloadKind::Fft => PerfUnit::GflopsPerSec,
            WorkloadKind::BlackScholes => PerfUnit::MoptsPerSec,
        }
    }

    /// Converts a device throughput in this workload's reporting unit
    /// (GFLOP/s or Mopts/s) into compulsory bandwidth in GB/s.
    ///
    /// This is how the projection engine turns "one BCE of performance"
    /// into "one unit of compulsory bandwidth".
    pub fn compulsory_bandwidth_gb_s(&self, throughput: f64) -> f64 {
        match self.perf_unit() {
            // GFLOP/s x bytes/flop = GB/s.
            PerfUnit::GflopsPerSec => throughput * self.bytes_per_flop(),
            // Mopts/s x bytes/option = MB/s -> GB/s.
            PerfUnit::MoptsPerSec => {
                throughput * self.compulsory_bytes_per_unit() / 1000.0
            }
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            WorkloadKind::Mmm => write!(f, "MMM-{}", self.size),
            WorkloadKind::Fft => write!(f, "FFT-{}", self.size),
            WorkloadKind::BlackScholes => f.write_str("BS"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_requires_power_of_two() {
        assert!(Workload::fft(0).is_err());
        assert!(Workload::fft(1).is_err());
        assert!(Workload::fft(3).is_err());
        assert!(Workload::fft(1000).is_err());
        assert!(Workload::fft(1024).is_ok());
    }

    #[test]
    fn mmm_rejects_zero() {
        assert!(Workload::mmm(0).is_err());
        assert!(Workload::mmm(128).is_ok());
    }

    #[test]
    fn footnote2_fft_arithmetic_intensity() {
        // AI(FFT) = 5N log2 N / 16N = 0.3125 log2 N.
        for &n in &[64usize, 1024, 16384] {
            let w = Workload::fft(n).unwrap();
            let expect = 0.3125 * (n as f64).log2();
            assert!((w.arithmetic_intensity() - expect).abs() < 1e-12, "N = {n}");
        }
        // FFT-1024: 0.32 bytes/flop as quoted in Section 6.
        let w = Workload::fft(1024).unwrap();
        assert!((w.bytes_per_flop() - 0.32).abs() < 0.001);
    }

    #[test]
    fn footnote3_mmm_arithmetic_intensity() {
        // AI(MMM) = 2N^3 / (2*4N^2) = N/4.
        let w = Workload::mmm(MMM_PAPER_BLOCK).unwrap();
        assert!((w.arithmetic_intensity() - 32.0).abs() < 1e-12);
        assert!((w.bytes_per_flop() - 0.03125).abs() < 1e-12);
    }

    #[test]
    fn bs_bytes_per_option() {
        let w = Workload::black_scholes();
        assert_eq!(w.compulsory_bytes_per_unit(), 10.0);
        assert_eq!(w.perf_unit(), PerfUnit::MoptsPerSec);
    }

    #[test]
    fn mmm_flop_count() {
        let w = Workload::mmm(128).unwrap();
        assert_eq!(w.flops_per_unit(), 2.0 * 128f64.powi(3));
    }

    #[test]
    fn fft_pseudo_flops() {
        let w = Workload::fft(1024).unwrap();
        assert_eq!(w.flops_per_unit(), 5.0 * 1024.0 * 10.0);
    }

    #[test]
    fn compulsory_bandwidth_conversions() {
        // FFT-1024 at 10 GFLOP/s consumes 3.2 GB/s.
        let fft = Workload::fft(1024).unwrap();
        assert!((fft.compulsory_bandwidth_gb_s(10.0) - 3.2).abs() < 0.01);
        // BS at 100 Mopts/s consumes 1 GB/s.
        let bs = Workload::black_scholes();
        assert!((bs.compulsory_bandwidth_gb_s(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(Workload::fft(1024).unwrap().to_string(), "FFT-1024");
        assert_eq!(Workload::mmm(128).unwrap().to_string(), "MMM-128");
        assert_eq!(Workload::black_scholes().to_string(), "BS");
    }

    #[test]
    fn labels() {
        assert_eq!(WorkloadKind::Mmm.label(), "MMM");
        assert_eq!(WorkloadKind::Fft.label(), "FFT");
        assert_eq!(WorkloadKind::BlackScholes.label(), "BS");
    }

    #[test]
    fn error_messages() {
        assert!(Workload::fft(12).unwrap_err().to_string().contains("power of two"));
        assert!(Workload::mmm(0).unwrap_err().to_string().contains("non-zero"));
    }
}
