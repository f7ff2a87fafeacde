//! Device descriptions (the rows of Table 2).

use crate::tech::TechNode;
use serde::Serialize;
use std::error::Error;
use std::fmt;

/// Errors raised when constructing or querying a device description.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// A physical quantity that must be positive was not.
    NonPositive {
        /// Name of the parameter.
        what: &'static str,
        /// Rejected value.
        value: f64,
    },
    /// The queried attribute was not measured/published for this device
    /// (the paper's "-" table cells).
    Unavailable {
        /// Name of the missing attribute.
        what: &'static str,
        /// The device in question.
        device: DeviceId,
    },
    /// A catalog was supplied with the same device twice.
    DuplicateDevice {
        /// The repeated id.
        device: DeviceId,
    },
    /// A device was requested from a catalog that does not carry it.
    MissingDevice {
        /// The absent id.
        device: DeviceId,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::NonPositive { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
            DeviceError::Unavailable { what, device } => {
                write!(f, "{what} is not available for {device}")
            }
            DeviceError::DuplicateDevice { device } => {
                write!(f, "device {device} appears more than once in the catalog")
            }
            DeviceError::MissingDevice { device } => {
                write!(f, "device {device} is not in the catalog")
            }
        }
    }
}

impl Error for DeviceError {}

/// The devices of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DeviceId {
    /// Intel Core i7-960 (the baseline CPU).
    CoreI7_960,
    /// Nvidia GeForce GTX 285.
    Gtx285,
    /// Nvidia GeForce GTX 480.
    Gtx480,
    /// AMD Radeon HD 5870.
    R5870,
    /// Xilinx Virtex-6 LX760.
    V6Lx760,
    /// Synthesized custom-logic cores (65 nm standard-cell flow).
    Asic,
}

impl DeviceId {
    /// All Table 2 devices, in the paper's column order.
    pub const ALL: [DeviceId; 6] = [
        DeviceId::CoreI7_960,
        DeviceId::Gtx285,
        DeviceId::Gtx480,
        DeviceId::R5870,
        DeviceId::V6Lx760,
        DeviceId::Asic,
    ];

    /// The short label used in the paper's tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            DeviceId::CoreI7_960 => "Core i7",
            DeviceId::Gtx285 => "GTX285",
            DeviceId::Gtx480 => "GTX480",
            DeviceId::R5870 => "R5870",
            DeviceId::V6Lx760 => "LX760",
            DeviceId::Asic => "ASIC",
        }
    }

    /// The numeric key used in the projection figures' legends
    /// (`(0) SymCMP (1) AsymCMP (2) LX760 (3) GTX285 (4) GTX480
    /// (5) R5870 (6) ASIC`), for the U-core devices.
    pub fn figure_index(self) -> Option<u8> {
        match self {
            DeviceId::V6Lx760 => Some(2),
            DeviceId::Gtx285 => Some(3),
            DeviceId::Gtx480 => Some(4),
            DeviceId::R5870 => Some(5),
            DeviceId::Asic => Some(6),
            DeviceId::CoreI7_960 => None,
        }
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The broad class a device belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DeviceClass {
    /// A conventional multicore CPU.
    Cpu,
    /// A programmable GPGPU.
    Gpu,
    /// A field-programmable gate array.
    Fpga,
    /// Application-specific custom logic.
    CustomLogic,
}

/// A device row of Table 2: identity, process technology, areas, clock,
/// voltage and memory-system attributes.
///
/// Attributes the paper leaves blank ("-") are `None` and surface as
/// [`DeviceError::Unavailable`] from the checked accessors.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Device {
    id: DeviceId,
    class: DeviceClass,
    year: u32,
    foundry: &'static str,
    node: TechNode,
    die_area_mm2: Option<f64>,
    core_area_mm2: Option<f64>,
    clock_ghz: Option<f64>,
    voltage_range_v: (f64, f64),
    memory: Option<&'static str>,
    bandwidth_gb_s: Option<f64>,
}

/// Builder-style constructor arguments for [`Device`]; all fields are
/// consumed by [`Device::new`].
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Which device this is.
    pub id: DeviceId,
    /// Device class.
    pub class: DeviceClass,
    /// Release / publication year.
    pub year: u32,
    /// Foundry and marketing node, e.g. `"TSMC"`.
    pub foundry: &'static str,
    /// Process node.
    pub node: TechNode,
    /// Total die area, if published.
    pub die_area_mm2: Option<f64>,
    /// Core+cache area after subtracting non-compute blocks, if derivable.
    pub core_area_mm2: Option<f64>,
    /// Nominal clock, if applicable.
    pub clock_ghz: Option<f64>,
    /// Operating voltage range `(min, max)`.
    pub voltage_range_v: (f64, f64),
    /// Memory configuration string, if applicable.
    pub memory: Option<&'static str>,
    /// Peak off-chip memory bandwidth, if applicable.
    pub bandwidth_gb_s: Option<f64>,
}

impl Device {
    /// Creates a device, validating the positive quantities.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NonPositive`] if any provided area, clock,
    /// bandwidth or voltage is not positive.
    pub fn new(spec: DeviceSpec) -> Result<Self, DeviceError> {
        /// Checks one optional quantity.
        ///
        /// # Errors
        ///
        /// [`DeviceError::NonPositive`] when `v` is present but not positive.
        fn check(what: &'static str, v: Option<f64>) -> Result<(), DeviceError> {
            if let Some(v) = v {
                if !(v.is_finite() && v > 0.0) {
                    return Err(DeviceError::NonPositive { what, value: v });
                }
            }
            Ok(())
        }
        check("die area", spec.die_area_mm2)?;
        check("core area", spec.core_area_mm2)?;
        check("clock", spec.clock_ghz)?;
        check("bandwidth", spec.bandwidth_gb_s)?;
        check("voltage min", Some(spec.voltage_range_v.0))?;
        check("voltage max", Some(spec.voltage_range_v.1))?;
        Ok(Device {
            id: spec.id,
            class: spec.class,
            year: spec.year,
            foundry: spec.foundry,
            node: spec.node,
            die_area_mm2: spec.die_area_mm2,
            core_area_mm2: spec.core_area_mm2,
            clock_ghz: spec.clock_ghz,
            voltage_range_v: spec.voltage_range_v,
            memory: spec.memory,
            bandwidth_gb_s: spec.bandwidth_gb_s,
        })
    }

    /// The constructor arguments that would rebuild this device — useful
    /// for deriving modified catalogs via [`crate::Catalog::from_specs`].
    pub fn spec(&self) -> DeviceSpec {
        DeviceSpec {
            id: self.id,
            class: self.class,
            year: self.year,
            foundry: self.foundry,
            node: self.node,
            die_area_mm2: self.die_area_mm2,
            core_area_mm2: self.core_area_mm2,
            clock_ghz: self.clock_ghz,
            voltage_range_v: self.voltage_range_v,
            memory: self.memory,
            bandwidth_gb_s: self.bandwidth_gb_s,
        }
    }

    /// The device identity.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The device class.
    pub fn class(&self) -> DeviceClass {
        self.class
    }

    /// Release / publication year.
    pub fn year(&self) -> u32 {
        self.year
    }

    /// Foundry string.
    pub fn foundry(&self) -> &'static str {
        self.foundry
    }

    /// Process node.
    pub fn node(&self) -> TechNode {
        self.node
    }

    /// Total die area, if published.
    pub fn die_area_mm2(&self) -> Option<f64> {
        self.die_area_mm2
    }

    /// Core+cache area (non-compute subtracted), if derivable.
    pub fn core_area_mm2(&self) -> Option<f64> {
        self.core_area_mm2
    }

    /// Core area, or an error naming the missing attribute.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Unavailable`] when the paper has no core
    /// area for this device.
    pub fn require_core_area_mm2(&self) -> Result<f64, DeviceError> {
        self.core_area_mm2.ok_or(DeviceError::Unavailable {
            what: "core area",
            device: self.id,
        })
    }

    /// Core area normalized to the 40 nm generation using the paper's
    /// convention (45 nm counts as 40 nm).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Unavailable`] when no core area is known.
    pub fn core_area_mm2_at_40nm(&self) -> Result<f64, DeviceError> {
        Ok(self.require_core_area_mm2()? * self.node.paper_normalization_to_40nm())
    }

    /// Nominal clock rate.
    pub fn clock_ghz(&self) -> Option<f64> {
        self.clock_ghz
    }

    /// Operating voltage range `(min, max)`.
    pub fn voltage_range_v(&self) -> (f64, f64) {
        self.voltage_range_v
    }

    /// Memory configuration, if applicable.
    pub fn memory(&self) -> Option<&'static str> {
        self.memory
    }

    /// Peak off-chip memory bandwidth.
    pub fn bandwidth_gb_s(&self) -> Option<f64> {
        self.bandwidth_gb_s
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {}, {})", self.id, self.foundry, self.node, self.year)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec {
            id: DeviceId::CoreI7_960,
            class: DeviceClass::Cpu,
            year: 2009,
            foundry: "Intel",
            node: TechNode::N45,
            die_area_mm2: Some(263.0),
            core_area_mm2: Some(193.0),
            clock_ghz: Some(3.2),
            voltage_range_v: (0.8, 1.375),
            memory: Some("3GB DDR3"),
            bandwidth_gb_s: Some(32.0),
        }
    }

    #[test]
    fn builds_and_exposes_fields() {
        let d = Device::new(spec()).unwrap();
        assert_eq!(d.id(), DeviceId::CoreI7_960);
        assert_eq!(d.class(), DeviceClass::Cpu);
        assert_eq!(d.die_area_mm2(), Some(263.0));
        assert_eq!(d.require_core_area_mm2().unwrap(), 193.0);
        assert_eq!(d.bandwidth_gb_s(), Some(32.0));
    }

    #[test]
    fn rejects_non_positive_quantities() {
        let mut s = spec();
        s.die_area_mm2 = Some(-1.0);
        assert!(matches!(
            Device::new(s),
            Err(DeviceError::NonPositive { what: "die area", .. })
        ));
        let mut s = spec();
        s.clock_ghz = Some(0.0);
        assert!(Device::new(s).is_err());
    }

    #[test]
    fn missing_attribute_is_reported() {
        let mut s = spec();
        s.core_area_mm2 = None;
        let d = Device::new(s).unwrap();
        let err = d.require_core_area_mm2().unwrap_err();
        assert!(err.to_string().contains("core area"));
        assert!(err.to_string().contains("Core i7"));
    }

    #[test]
    fn normalized_area_uses_paper_convention() {
        // 45 nm i7 keeps its area.
        let d = Device::new(spec()).unwrap();
        assert_eq!(d.core_area_mm2_at_40nm().unwrap(), 193.0);
    }

    #[test]
    fn figure_indices_match_legends() {
        assert_eq!(DeviceId::V6Lx760.figure_index(), Some(2));
        assert_eq!(DeviceId::Gtx285.figure_index(), Some(3));
        assert_eq!(DeviceId::Gtx480.figure_index(), Some(4));
        assert_eq!(DeviceId::R5870.figure_index(), Some(5));
        assert_eq!(DeviceId::Asic.figure_index(), Some(6));
        assert_eq!(DeviceId::CoreI7_960.figure_index(), None);
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = DeviceId::ALL.iter().map(|d| d.label()).collect();
        assert_eq!(
            labels,
            vec!["Core i7", "GTX285", "GTX480", "R5870", "LX760", "ASIC"]
        );
    }
}
