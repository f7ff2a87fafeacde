//! The Table 2 device catalog.

use crate::device::{Device, DeviceClass, DeviceError, DeviceId, DeviceSpec};
use crate::tech::TechNode;

/// The six measured devices of the paper's Table 2.
///
/// ```
/// use ucore_devices::{Catalog, DeviceId};
/// let catalog = Catalog::paper();
/// let i7 = catalog.device(DeviceId::CoreI7_960);
/// assert_eq!(i7.die_area_mm2(), Some(263.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    devices: Vec<Device>,
}

impl Catalog {
    /// Builds the catalog exactly as published in Table 2.
    ///
    /// The R5870's core area is not from a die photo: the paper assumes a
    /// 25% non-compute overhead on its 334 mm² die, giving 250.5 mm².
    pub fn paper() -> Self {
        let specs = vec![
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
            },
            DeviceSpec {
                id: DeviceId::Gtx285,
                class: DeviceClass::Gpu,
                year: 2008,
                foundry: "TSMC",
                node: TechNode::N55,
                die_area_mm2: Some(470.0),
                core_area_mm2: Some(338.0),
                clock_ghz: Some(1.476),
                voltage_range_v: (1.05, 1.18),
                memory: Some("1GB GDDR3"),
                bandwidth_gb_s: Some(159.0),
            },
            DeviceSpec {
                id: DeviceId::Gtx480,
                class: DeviceClass::Gpu,
                year: 2010,
                foundry: "TSMC",
                node: TechNode::N40,
                die_area_mm2: Some(529.0),
                core_area_mm2: Some(422.0),
                clock_ghz: Some(1.4),
                voltage_range_v: (0.96, 1.025),
                memory: Some("1.5GB GDDR5"),
                bandwidth_gb_s: Some(177.4),
            },
            DeviceSpec {
                id: DeviceId::R5870,
                class: DeviceClass::Gpu,
                year: 2009,
                foundry: "TSMC",
                node: TechNode::N40,
                die_area_mm2: Some(334.0),
                // 25% assumed non-compute overhead (no die photo).
                core_area_mm2: Some(334.0 * 0.75),
                clock_ghz: Some(1.476),
                voltage_range_v: (0.95, 1.174),
                memory: Some("1GB GDDR5"),
                bandwidth_gb_s: Some(153.6),
            },
            DeviceSpec {
                id: DeviceId::V6Lx760,
                class: DeviceClass::Fpga,
                year: 2009,
                foundry: "UMC/Samsung",
                node: TechNode::N40,
                die_area_mm2: None,
                core_area_mm2: None, // per-design: LUTs used x area/LUT
                clock_ghz: None,
                voltage_range_v: (0.9, 1.0),
                memory: None,
                bandwidth_gb_s: None,
            },
            DeviceSpec {
                id: DeviceId::Asic,
                class: DeviceClass::CustomLogic,
                year: 2007,
                foundry: "commercial std-cell",
                node: TechNode::N65,
                die_area_mm2: None,
                core_area_mm2: None, // per-design: from synthesis
                clock_ghz: None,
                voltage_range_v: (1.1, 1.1),
                memory: None,
                bandwidth_gb_s: None,
            },
        ];
        // The paper constants validate by construction; a regression here
        // is a programming error in this module, caught by the catalog
        // tests, so it cannot reach callers as a panic at runtime.
        match Catalog::from_specs(specs) {
            Ok(catalog) => catalog,
            Err(e) => unreachable!("Table 2 constants are valid: {e}"),
        }
    }

    /// Builds a catalog from caller-supplied specs (an ingress boundary:
    /// e.g. an alternative device table loaded from external data).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NonPositive`] for invalid physical
    /// quantities (via [`Device::new`]) and
    /// [`DeviceError::DuplicateDevice`] if an id appears twice.
    pub fn from_specs(specs: Vec<DeviceSpec>) -> Result<Self, DeviceError> {
        let mut devices: Vec<Device> = Vec::with_capacity(specs.len());
        for spec in specs {
            let device = Device::new(spec)?;
            if devices.iter().any(|d| d.id() == device.id()) {
                return Err(DeviceError::DuplicateDevice { device: device.id() });
            }
            devices.push(device);
        }
        Ok(Catalog { devices })
    }

    /// All devices in the paper's column order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Looks up a device by id.
    ///
    /// # Panics
    ///
    /// Never panics for ids constructed from [`DeviceId`]: the paper
    /// catalog contains every id. Use [`Catalog::try_device`] for
    /// catalogs built via [`Catalog::from_specs`], which may be partial.
    pub fn device(&self, id: DeviceId) -> &Device {
        match self.try_device(id) {
            Ok(device) => device,
            #[expect(
                clippy::panic,
                reason = "documented panicking accessor; the infallible paper catalog is total \
                          over DeviceId and `try_device` is the typed-error alternative"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Looks up a device by id, reporting absence as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MissingDevice`] when the catalog does not
    /// carry the id.
    pub fn try_device(&self, id: DeviceId) -> Result<&Device, DeviceError> {
        self.devices
            .iter()
            .find(|d| d.id() == id)
            .ok_or(DeviceError::MissingDevice { device: id })
    }

    /// The U-core candidate devices (everything except the baseline CPU).
    pub fn ucore_devices(&self) -> impl Iterator<Item = &Device> {
        self.devices
            .iter()
            .filter(|d| d.id() != DeviceId::CoreI7_960)
    }

    /// Core area in the 40 nm generation for a device, when defined.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Unavailable`] for the FPGA and ASIC, whose
    /// areas are design-specific (see [`crate::fpga::FpgaAreaModel`] and
    /// the `ucore-simdev` ASIC estimator).
    pub fn normalized_core_area(&self, id: DeviceId) -> Result<f64, DeviceError> {
        self.device(id).core_area_mm2_at_40nm()
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_all_six_devices() {
        let c = Catalog::paper();
        assert_eq!(c.devices().len(), 6);
        for id in DeviceId::ALL {
            assert_eq!(c.device(id).id(), id);
        }
    }

    #[test]
    fn table2_spot_checks() {
        let c = Catalog::paper();
        assert_eq!(c.device(DeviceId::Gtx480).die_area_mm2(), Some(529.0));
        assert_eq!(c.device(DeviceId::Gtx480).core_area_mm2(), Some(422.0));
        assert_eq!(c.device(DeviceId::Gtx285).node(), TechNode::N55);
        assert_eq!(c.device(DeviceId::Asic).node(), TechNode::N65);
        assert_eq!(c.device(DeviceId::CoreI7_960).clock_ghz(), Some(3.2));
        assert_eq!(c.device(DeviceId::V6Lx760).voltage_range_v(), (0.9, 1.0));
    }

    #[test]
    fn r5870_core_area_assumes_25_percent_overhead() {
        let c = Catalog::paper();
        let area = c.device(DeviceId::R5870).core_area_mm2().unwrap();
        assert!((area - 250.5).abs() < 1e-9);
    }

    #[test]
    fn normalized_areas_reproduce_table4_denominators() {
        let c = Catalog::paper();
        // Table 4 perf/mm² = absolute perf / normalized area.
        let i7 = c.normalized_core_area(DeviceId::CoreI7_960).unwrap();
        assert!((96.0 / i7 - 0.50).abs() < 0.01); // MMM row

        let gtx285 = c.normalized_core_area(DeviceId::Gtx285).unwrap();
        assert!((425.0 / gtx285 - 2.40).abs() < 0.05);

        let gtx480 = c.normalized_core_area(DeviceId::Gtx480).unwrap();
        assert!((541.0 / gtx480 - 1.28).abs() < 0.01);

        let r5870 = c.normalized_core_area(DeviceId::R5870).unwrap();
        assert!((1491.0 / r5870 - 5.95).abs() < 0.01);
    }

    #[test]
    fn fpga_and_asic_have_design_specific_area() {
        let c = Catalog::paper();
        assert!(c.normalized_core_area(DeviceId::V6Lx760).is_err());
        assert!(c.normalized_core_area(DeviceId::Asic).is_err());
    }

    #[test]
    fn ucore_devices_excludes_cpu() {
        let c = Catalog::paper();
        let ids: Vec<DeviceId> = c.ucore_devices().map(|d| d.id()).collect();
        assert_eq!(ids.len(), 5);
        assert!(!ids.contains(&DeviceId::CoreI7_960));
    }

    #[test]
    fn from_specs_rejects_duplicates() {
        let paper = Catalog::paper();
        let mut specs: Vec<DeviceSpec> =
            paper.devices().iter().map(Device::spec).collect();
        specs.push(specs[0].clone());
        let err = Catalog::from_specs(specs).unwrap_err();
        assert!(matches!(err, DeviceError::DuplicateDevice { .. }), "{err}");
    }

    #[test]
    fn try_device_reports_absence_as_typed_error() {
        let paper = Catalog::paper();
        let partial =
            Catalog::from_specs(vec![paper.device(DeviceId::CoreI7_960).spec()]).unwrap();
        assert!(partial.try_device(DeviceId::CoreI7_960).is_ok());
        let err = partial.try_device(DeviceId::Asic).unwrap_err();
        assert_eq!(err, DeviceError::MissingDevice { device: DeviceId::Asic });
    }

    #[test]
    fn gpu_bandwidths_match_table2() {
        let c = Catalog::paper();
        assert_eq!(c.device(DeviceId::Gtx285).bandwidth_gb_s(), Some(159.0));
        assert_eq!(c.device(DeviceId::Gtx480).bandwidth_gb_s(), Some(177.4));
        assert_eq!(c.device(DeviceId::R5870).bandwidth_gb_s(), Some(153.6));
    }
}
