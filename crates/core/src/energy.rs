//! Total-energy model (Figure 10).
//!
//! Energy is power integrated over time. With execution time measured
//! relative to one BCE running the whole workload (time 1) and power in
//! BCE active-power units, the energy of one BCE running the workload is
//! exactly 1 — the paper's normalization baseline (at 40 nm).
//!
//! For a design `(n, r)` on a workload with parallel fraction `f`:
//!
//! * serial phase: time `(1−f)/perf(r)` at power `r^(α/2)`;
//! * parallel phase: time `f/perf_par(n, r)` at power `power_par(n, r)`;
//! * unused cores are powered off entirely (no static power), per the
//!   paper's assumption;
//! * everything scales by the technology node's relative power per
//!   transistor (`1×` at 40 nm down to `0.25×` at 11 nm) — the "circuit
//!   improvements" credited for part of the energy decrease across
//!   generations.

use crate::chip::ChipSpec;
use crate::seq::SequentialLaw;
use crate::error::{ensure_positive, ModelError};
use crate::units::ParallelFraction;
use serde::Serialize;

/// Energy accounting for one workload execution on a design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergyBreakdown {
    /// Energy of the serial phase (BCE-energy units).
    pub serial: f64,
    /// Energy of the parallel phase (BCE-energy units).
    pub parallel: f64,
    /// Execution time relative to one BCE (the reciprocal of speedup).
    pub time: f64,
}

impl EnergyBreakdown {
    /// Total energy, serial + parallel.
    pub fn total(&self) -> f64 {
        self.serial + self.parallel
    }

    /// Energy-delay product, `total × time`.
    pub fn energy_delay(&self) -> f64 {
        self.total() * self.time
    }
}

/// Computes workload energy for designs at a given technology node.
///
/// ```
/// use ucore_core::{ChipSpec, EnergyModel, ParallelFraction};
/// let model = EnergyModel::at_reference_node();
/// let f = ParallelFraction::new(0.0)?;
/// // A single BCE core (r = n = 1) running a serial workload uses
/// // exactly the normalization energy.
/// let e = model.breakdown(&ChipSpec::symmetric(), f, 1.0, 1.0)?;
/// assert!((e.total() - 1.0).abs() < 1e-12);
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergyModel {
    power_scale: f64,
}

impl EnergyModel {
    /// Creates an energy model for a node with the given relative power
    /// per transistor (1.0 at the 40 nm reference node).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonPositive`] if `power_scale` is not
    /// positive and finite.
    pub fn new(power_scale: f64) -> Result<Self, ModelError> {
        ensure_positive("power scale", power_scale)?;
        Ok(EnergyModel { power_scale })
    }

    /// The reference-node model (40 nm, scale 1.0).
    pub fn at_reference_node() -> Self {
        EnergyModel { power_scale: 1.0 }
    }

    /// The relative power per transistor at this node.
    pub fn power_scale(&self) -> f64 {
        self.power_scale
    }

    /// Energy consumed by design `(n, r)` running a workload with parallel
    /// fraction `f`, normalized to one BCE at the reference node.
    ///
    /// # Errors
    ///
    /// Propagates `(n, r)` validation errors; a design with no parallel
    /// resources is rejected when `f > 0`.
    pub fn breakdown(
        &self,
        spec: &ChipSpec,
        f: ParallelFraction,
        n: f64,
        r: f64,
    ) -> Result<EnergyBreakdown, ModelError> {
        // Reuse the speedup path for validation and timing.
        let speedup = spec.speedup(f, n, r)?;
        let serial_time = f.serial() / spec.law().perf(r);
        let parallel_time = if f.get() > 0.0 {
            f.get() / spec.parallel_perf(n, r)
        } else {
            0.0
        };
        let serial = self.power_scale * spec.serial_power(r) * serial_time;
        let parallel = if parallel_time > 0.0 {
            self.power_scale * spec.parallel_power(n, r) * parallel_time
        } else {
            0.0
        };
        Ok(EnergyBreakdown {
            serial,
            parallel,
            time: speedup.time(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ucore::UCore;

    fn f(v: f64) -> ParallelFraction {
        ParallelFraction::new(v).unwrap()
    }

    #[test]
    fn bce_baseline_energy_is_one() {
        let m = EnergyModel::at_reference_node();
        for &fv in &[0.0, 0.5, 1.0] {
            let e = m
                .breakdown(&ChipSpec::asymmetric_offload(), f(fv), 2.0, 1.0)
                .unwrap();
            // r = 1 core: serial at perf 1/power 1; one parallel BCE at
            // perf 1/power 1 -> total = (1-f) + f = 1.
            assert!((e.total() - 1.0).abs() < 1e-12, "f = {fv}");
        }
    }

    #[test]
    fn node_scaling_multiplies_energy() {
        let at40 = EnergyModel::at_reference_node();
        let at11 = EnergyModel::new(0.25).unwrap();
        let spec = ChipSpec::symmetric();
        let e40 = at40.breakdown(&spec, f(0.9), 16.0, 4.0).unwrap().total();
        let e11 = at11.breakdown(&spec, f(0.9), 16.0, 4.0).unwrap().total();
        assert!((e11 - 0.25 * e40).abs() < 1e-12);
    }

    #[test]
    fn efficient_ucore_cuts_parallel_energy() {
        let m = EnergyModel::at_reference_node();
        let asic = ChipSpec::heterogeneous(UCore::new(27.4, 0.79).unwrap());
        let cmp = ChipSpec::asymmetric_offload();
        let e_asic = m.breakdown(&asic, f(0.99), 19.0, 2.0).unwrap();
        let e_cmp = m.breakdown(&cmp, f(0.99), 19.0, 2.0).unwrap();
        assert!(e_asic.parallel < e_cmp.parallel);
        assert!(e_asic.total() < e_cmp.total());
    }

    #[test]
    fn serial_energy_grows_with_r() {
        // E_serial = (1-f) * r^(alpha/2) / sqrt(r) = (1-f) * r^((alpha-1)/2).
        let m = EnergyModel::at_reference_node();
        let spec = ChipSpec::asymmetric_offload();
        let e1 = m.breakdown(&spec, f(0.5), 20.0, 1.0).unwrap().serial;
        let e4 = m.breakdown(&spec, f(0.5), 20.0, 4.0).unwrap().serial;
        assert!(e4 > e1);
        let expect = 0.5 * 4f64.powf((1.75 - 1.0) / 2.0);
        assert!((e4 - expect).abs() < 1e-12);
    }

    #[test]
    fn parallel_energy_independent_of_n_for_linear_fabrics() {
        // Both power and performance scale linearly with n - r, so the
        // parallel-phase energy does not depend on how many u-cores run.
        let m = EnergyModel::at_reference_node();
        let spec = ChipSpec::heterogeneous(UCore::new(5.0, 0.5).unwrap());
        let e_small = m.breakdown(&spec, f(0.9), 4.0, 1.0).unwrap().parallel;
        let e_large = m.breakdown(&spec, f(0.9), 400.0, 1.0).unwrap().parallel;
        assert!((e_small - e_large).abs() < 1e-12);
    }

    #[test]
    fn parallel_energy_equals_f_phi_over_mu() {
        // For the heterogeneous machine: E_par = f * phi / mu.
        let m = EnergyModel::at_reference_node();
        let u = UCore::new(8.0, 0.4).unwrap();
        let spec = ChipSpec::heterogeneous(u);
        let e = m.breakdown(&spec, f(0.9), 10.0, 1.0).unwrap();
        assert!((e.parallel - 0.9 * 0.4 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn energy_delay_product() {
        let b = EnergyBreakdown { serial: 0.25, parallel: 0.25, time: 0.1 };
        assert!((b.energy_delay() - 0.05).abs() < 1e-15);
    }

    #[test]
    fn rejects_invalid_scale() {
        assert!(EnergyModel::new(0.0).is_err());
        assert!(EnergyModel::new(f64::NAN).is_err());
    }
}
