//! Study configurations: the baseline and the §6.2 alternatives.

use serde::Serialize;
use ucore_core::{SerialPowerLaw, DEFAULT_ALPHA, SCENARIO_ALPHA};
use ucore_itrs::Roadmap;

/// A projection scenario: the roadmap to scale along, the serial power
/// law, and the sequential-core sweep limit.
///
/// ```
/// use ucore_project::Scenario;
/// let s = Scenario::baseline();
/// assert_eq!(s.alpha(), 1.75);
/// let mobile = Scenario::s5_low_power();
/// assert_eq!(mobile.roadmap().nodes()[0].core_power_budget_w, 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Scenario {
    name: String,
    roadmap: Roadmap,
    alpha: f64,
    r_max: f64,
}

impl Scenario {
    /// The paper's baseline study: ITRS 2009 roadmap, α = 1.75, `r`
    /// swept to 16.
    pub fn baseline() -> Self {
        Scenario {
            name: "baseline".into(),
            roadmap: Roadmap::itrs_2009(),
            alpha: DEFAULT_ALPHA,
            r_max: 16.0,
        }
    }

    /// §6.2 scenario 1: starting bandwidth reduced to 90 GB/s.
    pub fn s1_low_bandwidth() -> Self {
        Scenario {
            name: "scenario-1: 90 GB/s".into(),
            roadmap: Roadmap::itrs_2009().with_bandwidth_gb_s(90.0),
            ..Self::baseline()
        }
    }

    /// §6.2 scenario 2: 1 TB/s starting bandwidth (embedded DRAM /
    /// 3D-stacked memory).
    pub fn s2_high_bandwidth() -> Self {
        Scenario {
            name: "scenario-2: 1 TB/s".into(),
            roadmap: Roadmap::itrs_2009().with_bandwidth_gb_s(1000.0),
            ..Self::baseline()
        }
    }

    /// §6.2 scenario 3: core-area budget halved to 216 mm².
    pub fn s3_half_area() -> Self {
        Scenario {
            name: "scenario-3: 216 mm2".into(),
            roadmap: Roadmap::itrs_2009().with_core_area_mm2(216.0),
            ..Self::baseline()
        }
    }

    /// §6.2 scenario 4: power budget doubled to 200 W.
    pub fn s4_high_power() -> Self {
        Scenario {
            name: "scenario-4: 200 W".into(),
            roadmap: Roadmap::itrs_2009().with_power_budget_w(200.0),
            ..Self::baseline()
        }
    }

    /// §6.2 scenario 5: a 10 W budget (laptops and mobiles).
    pub fn s5_low_power() -> Self {
        Scenario {
            name: "scenario-5: 10 W".into(),
            roadmap: Roadmap::itrs_2009().with_power_budget_w(10.0),
            ..Self::baseline()
        }
    }

    /// §6.2 scenario 6: a hungrier sequential core (α = 2.25).
    pub fn s6_serial_power() -> Self {
        Scenario {
            name: "scenario-6: alpha 2.25".into(),
            alpha: SCENARIO_ALPHA,
            ..Self::baseline()
        }
    }

    /// The scenario's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The roadmap scaled along.
    pub fn roadmap(&self) -> &Roadmap {
        &self.roadmap
    }

    /// The serial power-law exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The serial power law as a model object.
    #[expect(
        clippy::expect_used,
        reason = "alphas come only from this module's private constants, all of which \
                  SerialPowerLaw accepts; there is no caller-supplied path to this expect"
    )]
    pub fn power_law(&self) -> SerialPowerLaw {
        // ucore-lint: allow(panic-reachability): alphas come only from this module's private constants, all of which SerialPowerLaw accepts
        SerialPowerLaw::new(self.alpha).expect("scenario alphas are valid")
    }

    /// The sequential-core sweep limit.
    pub fn r_max(&self) -> f64 {
        self.r_max
    }

    /// A copy with a custom roadmap (for ablations).
    pub fn with_roadmap(mut self, roadmap: Roadmap) -> Self {
        self.roadmap = roadmap;
        self
    }

    /// A copy with a custom `r` sweep limit (for ablations).
    pub fn with_r_max(mut self, r_max: f64) -> Self {
        self.r_max = r_max;
        self
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucore_devices::TechNode;

    #[test]
    fn baseline_matches_paper() {
        let s = Scenario::baseline();
        assert_eq!(s.alpha(), 1.75);
        assert_eq!(s.r_max(), 16.0);
        assert_eq!(
            s.roadmap().node(TechNode::N40).unwrap().bandwidth_gb_s,
            180.0
        );
    }

    #[test]
    fn scenario_knobs() {
        assert_eq!(
            Scenario::s1_low_bandwidth()
                .roadmap()
                .node(TechNode::N40)
                .unwrap()
                .bandwidth_gb_s,
            90.0
        );
        assert_eq!(
            Scenario::s2_high_bandwidth()
                .roadmap()
                .node(TechNode::N11)
                .unwrap()
                .bandwidth_gb_s,
            1400.0
        );
        assert_eq!(
            Scenario::s3_half_area()
                .roadmap()
                .node(TechNode::N40)
                .unwrap()
                .core_die_budget_mm2,
            216.0
        );
        assert_eq!(
            Scenario::s4_high_power()
                .roadmap()
                .node(TechNode::N40)
                .unwrap()
                .core_power_budget_w,
            200.0
        );
        assert_eq!(Scenario::s6_serial_power().alpha(), 2.25);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Scenario::baseline().name().to_string(),
            Scenario::s1_low_bandwidth().name().to_string(),
            Scenario::s2_high_bandwidth().name().to_string(),
            Scenario::s3_half_area().name().to_string(),
            Scenario::s4_high_power().name().to_string(),
            Scenario::s5_low_power().name().to_string(),
            Scenario::s6_serial_power().name().to_string(),
        ];
        let mut unique = names.to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
