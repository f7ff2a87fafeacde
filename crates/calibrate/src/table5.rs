//! Table 5: the full `(µ, φ)` grid.

use crate::params::{derive_ucore, CalibrationError, CALIBRATION_ALPHA, CALIBRATION_R};
use serde::Serialize;
use std::fmt;
use ucore_core::UCore;
use ucore_devices::DeviceId;
use ucore_simdev::SimLab;
use ucore_workloads::Workload;

/// The five workload columns of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum WorkloadColumn {
    /// Dense matrix multiplication.
    Mmm,
    /// Black-Scholes.
    Bs,
    /// 64-point FFT.
    Fft64,
    /// 1024-point FFT.
    Fft1024,
    /// 16384-point FFT.
    Fft16384,
}

impl WorkloadColumn {
    /// All columns, in the paper's order.
    pub const ALL: [WorkloadColumn; 5] = [
        WorkloadColumn::Mmm,
        WorkloadColumn::Bs,
        WorkloadColumn::Fft64,
        WorkloadColumn::Fft1024,
        WorkloadColumn::Fft16384,
    ];

    /// The concrete workload this column measures.
    pub fn workload(self) -> Workload {
        match self {
            // The paper's MMM bandwidth characterization assumes square
            // inputs blocked at N = 128 (footnote 3); the measured
            // observables do not depend on the size parameter.
            WorkloadColumn::Mmm => Workload::mmm_const::<128>(),
            WorkloadColumn::Bs => Workload::black_scholes(),
            WorkloadColumn::Fft64 => Workload::fft_const::<64>(),
            WorkloadColumn::Fft1024 => Workload::fft_const::<1024>(),
            WorkloadColumn::Fft16384 => Workload::fft_const::<16384>(),
        }
    }

    /// The column header used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadColumn::Mmm => "MMM",
            WorkloadColumn::Bs => "BS",
            WorkloadColumn::Fft64 => "FFT-64",
            WorkloadColumn::Fft1024 => "FFT-1024",
            WorkloadColumn::Fft16384 => "FFT-16384",
        }
    }
}

impl fmt::Display for WorkloadColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One cell of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Table5Row {
    /// The U-core device.
    pub device: DeviceId,
    /// The workload column.
    pub column: WorkloadColumn,
    /// The derived parameters.
    pub ucore: UCore,
}

/// The derived Table 5.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table5 {
    rows: Vec<Table5Row>,
}

impl Table5 {
    /// Derives the full table by measuring every available cell in the
    /// simulated lab and applying footnote 1.
    ///
    /// # Errors
    ///
    /// Returns [`CalibrationError::MissingMeasurement`] only if the i7
    /// baseline itself cannot be measured (never the case for the
    /// paper's lab); missing U-core cells are simply absent, as in the
    /// published table.
    pub fn derive() -> Result<Self, CalibrationError> {
        let lab = SimLab::paper();
        let mut rows = Vec::new();
        for column in WorkloadColumn::ALL {
            let workload = column.workload();
            let baseline = lab
                .measure(DeviceId::CoreI7_960, workload)
                .map_err(|_| CalibrationError::MissingMeasurement {
                    cell: format!("{workload} on Core i7"),
                })?;
            for device in DeviceId::ALL {
                if device == DeviceId::CoreI7_960 {
                    continue;
                }
                let Ok(measurement) = lab.measure(device, workload) else {
                    continue; // a published "-" cell
                };
                let ucore =
                    derive_ucore(&baseline, &measurement, CALIBRATION_R, CALIBRATION_ALPHA)?;
                rows.push(Table5Row { device, column, ucore });
            }
        }
        Ok(Table5 { rows })
    }

    /// All derived cells.
    pub fn rows(&self) -> &[Table5Row] {
        &self.rows
    }

    /// The `(µ, φ)` for one cell, if the paper measured it.
    pub fn ucore(&self, device: DeviceId, column: WorkloadColumn) -> Option<UCore> {
        self.rows
            .iter()
            .find(|r| r.device == device && r.column == column)
            .map(|r| r.ucore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published Table 5, for end-to-end comparison.
    fn published() -> Vec<(DeviceId, WorkloadColumn, f64, f64)> {
        use DeviceId::*;
        use WorkloadColumn::*;
        vec![
            (Gtx285, Mmm, 3.41, 0.74),
            (Gtx285, Bs, 17.0, 0.57),
            (Gtx285, Fft64, 2.42, 0.59),
            (Gtx285, Fft1024, 2.88, 0.63),
            (Gtx285, Fft16384, 3.75, 0.89),
            (Gtx480, Mmm, 1.83, 0.77),
            (Gtx480, Fft64, 1.56, 0.39),
            (Gtx480, Fft1024, 2.20, 0.47),
            (Gtx480, Fft16384, 2.83, 0.66),
            (R5870, Mmm, 8.47, 1.27),
            (V6Lx760, Mmm, 0.75, 0.31),
            (V6Lx760, Bs, 5.68, 0.26),
            (V6Lx760, Fft64, 2.81, 0.29),
            (V6Lx760, Fft1024, 2.02, 0.29),
            (V6Lx760, Fft16384, 3.02, 0.37),
            (Asic, Mmm, 27.4, 0.79),
            (Asic, Bs, 482.0, 4.75),
            (Asic, Fft64, 733.0, 5.34),
            (Asic, Fft1024, 489.0, 4.96),
            (Asic, Fft16384, 689.0, 6.38),
        ]
    }

    #[test]
    fn reproduces_every_published_cell_within_two_percent() {
        let table = Table5::derive().unwrap();
        for (device, column, mu_pub, phi_pub) in published() {
            let u = table
                .ucore(device, column)
                .unwrap_or_else(|| panic!("missing {device:?} {column}"));
            assert!(
                (u.mu() - mu_pub).abs() / mu_pub < 0.02,
                "{device:?} {column} mu: {} vs {mu_pub}",
                u.mu()
            );
            assert!(
                (u.phi() - phi_pub).abs() / phi_pub < 0.02,
                "{device:?} {column} phi: {} vs {phi_pub}",
                u.phi()
            );
        }
    }

    #[test]
    fn has_exactly_the_published_cells() {
        let table = Table5::derive().unwrap();
        assert_eq!(table.rows().len(), published().len());
        // The paper's gaps stay gaps.
        assert!(table.ucore(DeviceId::R5870, WorkloadColumn::Bs).is_none());
        assert!(table.ucore(DeviceId::R5870, WorkloadColumn::Fft1024).is_none());
        assert!(table.ucore(DeviceId::Gtx480, WorkloadColumn::Bs).is_none());
    }

    #[test]
    fn asic_dominates_mu_everywhere() {
        let table = Table5::derive().unwrap();
        for column in WorkloadColumn::ALL {
            let asic = table.ucore(DeviceId::Asic, column).unwrap();
            for device in [DeviceId::Gtx285, DeviceId::Gtx480, DeviceId::V6Lx760] {
                if let Some(other) = table.ucore(device, column) {
                    assert!(asic.mu() > other.mu(), "{column}: {device:?}");
                }
            }
        }
    }

    #[test]
    fn fpga_has_lowest_phi() {
        // The FPGA's hallmark in Table 5: lowest relative power.
        let table = Table5::derive().unwrap();
        for column in WorkloadColumn::ALL {
            let fpga = table.ucore(DeviceId::V6Lx760, column).unwrap();
            for device in [DeviceId::Gtx285, DeviceId::Gtx480, DeviceId::Asic] {
                if let Some(other) = table.ucore(device, column) {
                    assert!(fpga.phi() < other.phi(), "{column}: vs {device:?}");
                }
            }
        }
    }

    #[test]
    fn column_workloads() {
        assert_eq!(WorkloadColumn::Fft1024.workload().size(), 1024);
        assert_eq!(WorkloadColumn::Mmm.label(), "MMM");
        assert_eq!(WorkloadColumn::ALL.len(), 5);
    }
}
