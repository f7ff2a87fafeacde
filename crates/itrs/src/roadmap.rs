//! Table 6: technology-scaling parameters per projection node.

use serde::Serialize;
use std::error::Error;
use std::fmt;
use ucore_devices::TechNode;

/// Errors raised when constructing or querying the roadmap.
#[derive(Debug, Clone, PartialEq)]
pub enum RoadmapError {
    /// The requested node is not part of the projection (e.g. 65 nm).
    NotProjected {
        /// The rejected node.
        node: TechNode,
    },
    /// A roadmap was supplied with no nodes.
    Empty,
    /// Node years must be strictly increasing.
    UnsortedYears {
        /// The earlier year in the offending pair.
        prev: u32,
        /// The year that failed to increase past it.
        next: u32,
    },
    /// A scaling parameter that must be positive and finite was not.
    InvalidScale {
        /// Name of the parameter.
        what: &'static str,
        /// The node carrying it.
        node: TechNode,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for RoadmapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoadmapError::NotProjected { node } => {
                write!(f, "node {node} is not in the projection roadmap")
            }
            RoadmapError::Empty => write!(f, "roadmap has no nodes"),
            RoadmapError::UnsortedYears { prev, next } => {
                write!(f, "roadmap years must strictly increase, got {prev} then {next}")
            }
            RoadmapError::InvalidScale { what, node, value } => {
                write!(f, "{what} at node {node} must be positive and finite, got {value}")
            }
        }
    }
}

impl Error for RoadmapError {}

/// One row (column, in the paper's layout) of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NodeParams {
    /// The technology node.
    pub node: TechNode,
    /// The year the roadmap assigns this node.
    pub year: u32,
    /// Core+cache silicon budget in mm² (576 mm² die, 25% reserved for
    /// non-compute components).
    pub core_die_budget_mm2: f64,
    /// Core+cache power budget in watts.
    pub core_power_budget_w: f64,
    /// Off-chip bandwidth in GB/s.
    pub bandwidth_gb_s: f64,
    /// Area budget expressed in BCE units (transistor density doubles
    /// per node while the silicon budget stays fixed).
    pub max_area_bce: f64,
    /// Power per transistor relative to 40 nm.
    pub rel_power_per_transistor: f64,
    /// Bandwidth relative to 40 nm.
    pub rel_bandwidth: f64,
}

/// The scaling roadmap: a sequence of per-node parameters.
///
/// [`Roadmap::itrs_2009`] reproduces the paper's Table 6 exactly;
/// [`Roadmap::with_bandwidth_gb_s`] and friends derive the §6.2
/// alternative scenarios.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Roadmap {
    nodes: Vec<NodeParams>,
}

/// The paper's total die budget in mm² (a Power7-class die).
pub const TOTAL_DIE_MM2: f64 = 576.0;

/// Fraction of the die reserved for non-compute components.
pub const NON_COMPUTE_FRACTION: f64 = 0.25;

impl Roadmap {
    /// Builds the paper's Table 6.
    pub fn itrs_2009() -> Self {
        // (node, year, bandwidth GB/s, max area BCE, rel power, rel bw)
        let rows = [
            (TechNode::N40, 2011, 180.0, 19.0, 1.0, 1.0),
            (TechNode::N32, 2013, 198.0, 37.0, 0.75, 1.1),
            (TechNode::N22, 2016, 234.0, 75.0, 0.5, 1.3),
            (TechNode::N16, 2019, 234.0, 149.0, 0.36, 1.3),
            (TechNode::N11, 2022, 252.0, 298.0, 0.25, 1.4),
        ];
        let nodes = rows
            .into_iter()
            .map(|(node, year, bw, area, pwr, relbw)| NodeParams {
                node,
                year,
                core_die_budget_mm2: TOTAL_DIE_MM2 * (1.0 - NON_COMPUTE_FRACTION),
                core_power_budget_w: 100.0,
                bandwidth_gb_s: bw,
                max_area_bce: area,
                rel_power_per_transistor: pwr,
                rel_bandwidth: relbw,
            })
            .collect();
        Roadmap { nodes }
    }

    /// Builds a roadmap from caller-supplied node rows (an ingress
    /// boundary: e.g. an alternative table loaded from external data).
    ///
    /// # Errors
    ///
    /// Returns [`RoadmapError::Empty`] for an empty table,
    /// [`RoadmapError::UnsortedYears`] if years are not strictly
    /// increasing (interpolation in [`Roadmap::at_year`] depends on
    /// this), and [`RoadmapError::InvalidScale`] if any budget or scale
    /// factor is not positive and finite.
    pub fn from_nodes(nodes: Vec<NodeParams>) -> Result<Roadmap, RoadmapError> {
        if nodes.is_empty() {
            return Err(RoadmapError::Empty);
        }
        for pair in nodes.windows(2) {
            if pair[1].year <= pair[0].year {
                return Err(RoadmapError::UnsortedYears {
                    prev: pair[0].year,
                    next: pair[1].year,
                });
            }
        }
        for p in &nodes {
            for (what, value) in [
                ("core die budget", p.core_die_budget_mm2),
                ("core power budget", p.core_power_budget_w),
                ("bandwidth", p.bandwidth_gb_s),
                ("area budget", p.max_area_bce),
                ("relative power per transistor", p.rel_power_per_transistor),
                ("relative bandwidth", p.rel_bandwidth),
            ] {
                if !value.is_finite() || value <= 0.0 {
                    return Err(RoadmapError::InvalidScale {
                        what,
                        node: p.node,
                        value,
                    });
                }
            }
        }
        Ok(Roadmap { nodes })
    }

    /// All nodes, oldest first.
    pub fn nodes(&self) -> &[NodeParams] {
        &self.nodes
    }

    /// Parameters for one node.
    ///
    /// # Errors
    ///
    /// Returns [`RoadmapError::NotProjected`] for nodes outside the
    /// projection.
    pub fn node(&self, node: TechNode) -> Result<NodeParams, RoadmapError> {
        self.nodes
            .iter()
            .find(|p| p.node == node)
            .copied()
            .ok_or(RoadmapError::NotProjected { node })
    }

    /// A copy with the starting (40 nm) bandwidth replaced and every
    /// later node rescaled by its `rel_bandwidth` factor — scenario 1
    /// (90 GB/s) and scenario 2 (1 TB/s) of §6.2.
    pub fn with_bandwidth_gb_s(&self, starting: f64) -> Roadmap {
        let nodes = self
            .nodes
            .iter()
            .map(|p| NodeParams {
                bandwidth_gb_s: starting * p.rel_bandwidth,
                ..*p
            })
            .collect();
        Roadmap { nodes }
    }

    /// A copy with a different core-area budget in mm², rescaling each
    /// node's BCE area budget proportionally — scenario 3 (216 mm²).
    pub fn with_core_area_mm2(&self, core_mm2: f64) -> Roadmap {
        let nodes = self
            .nodes
            .iter()
            .map(|p| NodeParams {
                core_die_budget_mm2: core_mm2,
                max_area_bce: p.max_area_bce * core_mm2 / p.core_die_budget_mm2,
                ..*p
            })
            .collect();
        Roadmap { nodes }
    }

    /// A copy with a different core power budget in watts — scenarios 4
    /// (200 W) and 5 (10 W).
    // ucore-lint: allow(raw-f64-api): raw watts is the external ITRS roadmap input; the `_w` suffix carries the unit at this ingress boundary
    pub fn with_power_budget_w(&self, watts: f64) -> Roadmap {
        let nodes = self
            .nodes
            .iter()
            .map(|p| NodeParams { core_power_budget_w: watts, ..*p })
            .collect();
        Roadmap { nodes }
    }

    /// Interpolated parameters at an arbitrary calendar year between the
    /// first and last node years.
    ///
    /// Scale-like quantities (area in BCE, power per transistor) are
    /// interpolated geometrically — density doubles per node, so the
    /// between-node trajectory is exponential — while bandwidth is
    /// interpolated linearly (pin counts creep roughly linearly). The
    /// node assigned is the nearest *available* one (processes ship at
    /// node years, not between them).
    ///
    /// # Errors
    ///
    /// Returns [`RoadmapError::NotProjected`] if the year falls outside
    /// the roadmap horizon.
    pub fn at_year(&self, year: u32) -> Result<NodeParams, RoadmapError> {
        let (Some(first), Some(last)) = (self.nodes.first(), self.nodes.last()) else {
            return Err(RoadmapError::Empty);
        };
        if year < first.year || year > last.year {
            // Report against the nearest end node for a meaningful error.
            return Err(RoadmapError::NotProjected { node: first.node });
        }
        if let Some(exact) = self.nodes.iter().find(|p| p.year == year) {
            return Ok(*exact);
        }
        // Unreachable while years are sorted (guaranteed by the builders
        // and validated by `from_nodes`), but a malformed roadmap must
        // degrade to an error, never panic the projection path.
        let bracket = self
            .nodes
            .iter()
            .position(|p| p.year > year)
            .and_then(|i| Some((self.nodes.get(i.checked_sub(1)?)?, self.nodes.get(i)?)));
        let Some((&lo, &hi)) = bracket else {
            return Err(RoadmapError::UnsortedYears { prev: first.year, next: last.year });
        };
        let t = f64::from(year - lo.year) / f64::from(hi.year - lo.year);
        let geo = |a: f64, b: f64| (a.ln() + t * (b.ln() - a.ln())).exp();
        let lin = |a: f64, b: f64| a + t * (b - a);
        Ok(NodeParams {
            // The fab you can actually buy at this year.
            node: if t < 0.5 { lo.node } else { hi.node },
            year,
            core_die_budget_mm2: lo.core_die_budget_mm2,
            core_power_budget_w: lo.core_power_budget_w,
            bandwidth_gb_s: lin(lo.bandwidth_gb_s, hi.bandwidth_gb_s),
            max_area_bce: geo(lo.max_area_bce, hi.max_area_bce),
            rel_power_per_transistor: geo(
                lo.rel_power_per_transistor,
                hi.rel_power_per_transistor,
            ),
            rel_bandwidth: lin(lo.rel_bandwidth, hi.rel_bandwidth),
        })
    }
}

impl Default for Roadmap {
    fn default() -> Self {
        Roadmap::itrs_2009()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_values() {
        let r = Roadmap::itrs_2009();
        assert_eq!(r.nodes().len(), 5);
        let n40 = r.node(TechNode::N40).unwrap();
        assert_eq!(n40.year, 2011);
        assert_eq!(n40.core_die_budget_mm2, 432.0);
        assert_eq!(n40.core_power_budget_w, 100.0);
        assert_eq!(n40.bandwidth_gb_s, 180.0);
        assert_eq!(n40.max_area_bce, 19.0);

        let n22 = r.node(TechNode::N22).unwrap();
        assert_eq!(n22.bandwidth_gb_s, 234.0);
        assert_eq!(n22.max_area_bce, 75.0);
        assert_eq!(n22.rel_power_per_transistor, 0.5);

        let n11 = r.node(TechNode::N11).unwrap();
        assert_eq!(n11.year, 2022);
        assert_eq!(n11.rel_bandwidth, 1.4);
    }

    #[test]
    fn area_doubles_per_node() {
        let r = Roadmap::itrs_2009();
        let areas: Vec<f64> = r.nodes().iter().map(|p| p.max_area_bce).collect();
        for pair in areas.windows(2) {
            let ratio = pair[1] / pair[0];
            assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn power_per_transistor_drops_only_4x() {
        // The dark-silicon observation: density grows 16x while power per
        // transistor falls only 4x across the roadmap.
        let r = Roadmap::itrs_2009();
        let first = r.nodes().first().unwrap();
        let last = r.nodes().last().unwrap();
        assert!((last.max_area_bce / first.max_area_bce - 15.7).abs() < 1.0);
        assert_eq!(first.rel_power_per_transistor / last.rel_power_per_transistor, 4.0);
    }

    #[test]
    fn bandwidth_grows_less_than_1_5x() {
        let r = Roadmap::itrs_2009();
        let first = r.nodes().first().unwrap().bandwidth_gb_s;
        let last = r.nodes().last().unwrap().bandwidth_gb_s;
        assert!(last / first < 1.5);
    }

    #[test]
    fn non_projected_node_is_an_error() {
        let r = Roadmap::itrs_2009();
        let err = r.node(TechNode::N65).unwrap_err();
        assert!(err.to_string().contains("65nm"));
    }

    #[test]
    fn bandwidth_scenario_rescales_all_nodes() {
        let r = Roadmap::itrs_2009().with_bandwidth_gb_s(1000.0);
        assert_eq!(r.node(TechNode::N40).unwrap().bandwidth_gb_s, 1000.0);
        assert_eq!(r.node(TechNode::N11).unwrap().bandwidth_gb_s, 1400.0);
    }

    #[test]
    fn area_scenario_halves_bce_budget() {
        let r = Roadmap::itrs_2009().with_core_area_mm2(216.0);
        let n40 = r.node(TechNode::N40).unwrap();
        assert_eq!(n40.core_die_budget_mm2, 216.0);
        assert!((n40.max_area_bce - 9.5).abs() < 1e-9);
    }

    #[test]
    fn power_scenario_replaces_budget() {
        let r = Roadmap::itrs_2009().with_power_budget_w(10.0);
        assert!(r.nodes().iter().all(|p| p.core_power_budget_w == 10.0));
    }

    #[test]
    fn die_budget_consistent_with_576mm2_minus_25_percent() {
        assert_eq!(TOTAL_DIE_MM2 * (1.0 - NON_COMPUTE_FRACTION), 432.0);
    }

    #[test]
    fn at_year_hits_node_years_exactly() {
        let r = Roadmap::itrs_2009();
        for node in r.nodes() {
            let p = r.at_year(node.year).unwrap();
            assert_eq!(&p, node);
        }
    }

    #[test]
    fn at_year_interpolates_between_nodes() {
        let r = Roadmap::itrs_2009();
        let p2012 = r.at_year(2012).unwrap();
        assert!(p2012.max_area_bce > 19.0 && p2012.max_area_bce < 37.0);
        assert!(p2012.bandwidth_gb_s > 180.0 && p2012.bandwidth_gb_s < 198.0);
        assert!(
            p2012.rel_power_per_transistor < 1.0
                && p2012.rel_power_per_transistor > 0.75
        );
        // Budgets are constants of the study, not interpolated.
        assert_eq!(p2012.core_power_budget_w, 100.0);
    }

    #[test]
    fn at_year_geometric_area_growth() {
        // Midway between 2011 (19 BCE) and 2013 (37 BCE) the geometric
        // interpolation gives sqrt(19*37) ≈ 26.5, not the linear 28.
        let r = Roadmap::itrs_2009();
        let p = r.at_year(2012).unwrap();
        assert!((p.max_area_bce - (19.0f64 * 37.0).sqrt()).abs() < 0.1);
    }

    #[test]
    fn at_year_rejects_out_of_horizon() {
        let r = Roadmap::itrs_2009();
        assert!(r.at_year(2010).is_err());
        assert!(r.at_year(2023).is_err());
    }

    #[test]
    fn from_nodes_round_trips_table6() {
        let nodes = Roadmap::itrs_2009().nodes().to_vec();
        let rebuilt = Roadmap::from_nodes(nodes).unwrap();
        assert_eq!(rebuilt, Roadmap::itrs_2009());
    }

    #[test]
    fn from_nodes_rejects_empty() {
        assert_eq!(Roadmap::from_nodes(Vec::new()).unwrap_err(), RoadmapError::Empty);
    }

    #[test]
    fn from_nodes_rejects_unsorted_years() {
        let mut nodes = Roadmap::itrs_2009().nodes().to_vec();
        nodes.swap(0, 1);
        let err = Roadmap::from_nodes(nodes).unwrap_err();
        assert!(matches!(err, RoadmapError::UnsortedYears { .. }), "{err}");
    }

    #[test]
    fn from_nodes_rejects_non_finite_scales() {
        for bad in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            let mut nodes = Roadmap::itrs_2009().nodes().to_vec();
            nodes[2].rel_power_per_transistor = bad;
            let err = Roadmap::from_nodes(nodes).unwrap_err();
            assert!(
                matches!(err, RoadmapError::InvalidScale { what, .. }
                    if what.contains("power per transistor")),
                "{err}"
            );
        }
    }

    #[test]
    fn at_year_is_monotone_in_capability() {
        let r = Roadmap::itrs_2009();
        let mut prev_area = 0.0;
        let mut prev_power = f64::INFINITY;
        for year in 2011..=2022 {
            let p = r.at_year(year).unwrap();
            assert!(p.max_area_bce >= prev_area);
            assert!(p.rel_power_per_transistor <= prev_power);
            prev_area = p.max_area_bce;
            prev_power = p.rel_power_per_transistor;
        }
    }
}
