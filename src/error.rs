//! The workspace-wide error taxonomy.
//!
//! Every subsystem reports failures through its own typed error —
//! [`ModelError`] at the model layer, [`DeviceError`] /
//! [`RoadmapError`] at the data-table ingress boundaries, and so on.
//! [`UcoreError`] is the union of all of them: the type application
//! code holds when it crosses subsystems, with `From` conversions so
//! `?` composes across layers.
//!
//! ```
//! use ucore::error::UcoreError;
//!
//! fn cross_layer() -> Result<f64, UcoreError> {
//!     let f = ucore::model::ParallelFraction::new(0.99)?; // ModelError
//!     let node = ucore::itrs::Roadmap::itrs_2009()
//!         .node(ucore::devices::TechNode::N22)?; // RoadmapError
//!     Ok(f.get() * node.max_area_bce)
//! }
//! assert!(cross_layer().is_ok());
//! ```

use std::error::Error;
use std::fmt;
use ucore_calibrate::CalibrationError;
use ucore_core::{ErrorCategory, ModelError};
use ucore_devices::DeviceError;
use ucore_itrs::RoadmapError;
use ucore_project::faultinject::FaultSpecError;
use ucore_project::ProjectionError;
use ucore_simdev::SimLabError;
use ucore_workloads::WorkloadError;

/// Any error the workspace can produce, by originating subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum UcoreError {
    /// The analytical model rejected an input or found no feasible
    /// design ([`ucore_core`]).
    Model(ModelError),
    /// The device catalog rejected or could not answer a query
    /// ([`ucore_devices`]).
    Device(DeviceError),
    /// The ITRS roadmap rejected or could not answer a query
    /// ([`ucore_itrs`]).
    Roadmap(RoadmapError),
    /// A workload kernel rejected its inputs ([`ucore_workloads`]).
    Workload(WorkloadError),
    /// The simulated measurement lab failed ([`ucore_simdev`]).
    SimLab(SimLabError),
    /// Table 5 calibration failed ([`ucore_calibrate`]).
    Calibration(CalibrationError),
    /// The projection pipeline failed ([`ucore_project`]).
    Projection(ProjectionError),
    /// A fault-injection specification was malformed
    /// ([`ucore_project::faultinject`]).
    FaultSpec(FaultSpecError),
}

impl fmt::Display for UcoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UcoreError::Model(e) => write!(f, "model: {e}"),
            UcoreError::Device(e) => write!(f, "device: {e}"),
            UcoreError::Roadmap(e) => write!(f, "roadmap: {e}"),
            UcoreError::Workload(e) => write!(f, "workload: {e}"),
            UcoreError::SimLab(e) => write!(f, "simlab: {e}"),
            UcoreError::Calibration(e) => write!(f, "calibration: {e}"),
            UcoreError::Projection(e) => write!(f, "projection: {e}"),
            UcoreError::FaultSpec(e) => write!(f, "fault spec: {e}"),
        }
    }
}

impl UcoreError {
    /// A coarse classification mirroring
    /// [`ModelError::category`](ucore_core::ModelError::category):
    /// whether retrying with the same input could ever succeed.
    pub fn category(&self) -> ErrorCategory {
        match self {
            UcoreError::Model(e) => e.category(),
            // Infeasibility is a model-layer concept; every other
            // subsystem error is an input or data problem.
            UcoreError::Projection(ProjectionError::Infeasible { .. }) => {
                ErrorCategory::Infeasibility
            }
            _ => ErrorCategory::InvalidInput,
        }
    }
}

impl Error for UcoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            UcoreError::Model(e) => Some(e),
            UcoreError::Device(e) => Some(e),
            UcoreError::Roadmap(e) => Some(e),
            UcoreError::Workload(e) => Some(e),
            UcoreError::SimLab(e) => Some(e),
            UcoreError::Calibration(e) => Some(e),
            UcoreError::Projection(e) => Some(e),
            UcoreError::FaultSpec(e) => Some(e),
        }
    }
}

macro_rules! impl_from {
    ($($variant:ident($inner:ty)),* $(,)?) => {
        $(impl From<$inner> for UcoreError {
            fn from(e: $inner) -> Self {
                UcoreError::$variant(e)
            }
        })*
    };
}

impl_from!(
    Model(ModelError),
    Device(DeviceError),
    Roadmap(RoadmapError),
    Workload(WorkloadError),
    SimLab(SimLabError),
    Calibration(CalibrationError),
    Projection(ProjectionError),
    FaultSpec(FaultSpecError),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn question_mark_converts_every_subsystem_error() {
        fn model() -> Result<(), UcoreError> {
            ucore_core::ParallelFraction::new(2.0)?;
            Ok(())
        }
        fn roadmap() -> Result<(), UcoreError> {
            ucore_itrs::Roadmap::from_nodes(Vec::new())?;
            Ok(())
        }
        fn workload() -> Result<(), UcoreError> {
            ucore_workloads::mmm::Matrix::try_zeros(0, 1)?;
            Ok(())
        }
        assert!(matches!(model().unwrap_err(), UcoreError::Model(_)));
        assert!(matches!(roadmap().unwrap_err(), UcoreError::Roadmap(_)));
        assert!(matches!(workload().unwrap_err(), UcoreError::Workload(_)));
    }

    #[test]
    fn display_prefixes_the_subsystem() {
        let e = UcoreError::from(ModelError::InvalidFraction { value: 2.0 });
        assert!(e.to_string().starts_with("model: "), "{e}");
        let e = UcoreError::from(RoadmapError::Empty);
        assert!(e.to_string().starts_with("roadmap: "), "{e}");
    }

    #[test]
    fn categories_distinguish_infeasibility_from_bad_input() {
        use ucore_core::ErrorCategory;
        let bad = UcoreError::from(ModelError::InvalidFraction { value: 2.0 });
        assert_eq!(bad.category(), ErrorCategory::InvalidInput);
        let infeasible =
            UcoreError::from(ModelError::Infeasible { reason: "serial power".into() });
        assert_eq!(infeasible.category(), ErrorCategory::Infeasibility);
    }

    #[test]
    fn source_chains_to_the_inner_error() {
        let e = UcoreError::from(ModelError::NotFinite { what: "mu" });
        let source = e.source().expect("has a source");
        assert!(source.to_string().contains("mu must be finite"));
    }
}
