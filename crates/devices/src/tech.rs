//! Process technology nodes and scaling arithmetic.

use serde::Serialize;
use std::fmt;

/// A CMOS process node, identified by its nominal feature size.
///
/// The catalog spans the measured devices (65 nm ASIC flow through 40 nm
/// GPUs) and the ITRS projection horizon (down to 11 nm).
///
/// ```
/// use ucore_devices::TechNode;
/// assert_eq!(TechNode::N40.feature_nm(), 40.0);
/// assert!(TechNode::N22 < TechNode::N40); // smaller feature = "less than"
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TechNode {
    /// 65 nm (the ASIC synthesis flow).
    N65,
    /// 55 nm (GTX285).
    N55,
    /// 45 nm (Core i7-960, Atom; treated as the 40 nm generation when
    /// normalizing areas).
    N45,
    /// 40 nm (GTX480, R5870, LX760; the projection reference node, 2011).
    N40,
    /// 32 nm (2013).
    N32,
    /// 22 nm (2016).
    N22,
    /// 16 nm (2019).
    N16,
    /// 11 nm (2022).
    N11,
}

impl TechNode {
    /// All nodes, largest feature first.
    pub const ALL: [TechNode; 8] = [
        TechNode::N65,
        TechNode::N55,
        TechNode::N45,
        TechNode::N40,
        TechNode::N32,
        TechNode::N22,
        TechNode::N16,
        TechNode::N11,
    ];

    /// The five nodes of the paper's projection study (Table 6).
    pub const PROJECTION: [TechNode; 5] = [
        TechNode::N40,
        TechNode::N32,
        TechNode::N22,
        TechNode::N16,
        TechNode::N11,
    ];

    /// Nominal feature size in nanometers.
    pub fn feature_nm(self) -> f64 {
        match self {
            TechNode::N65 => 65.0,
            TechNode::N55 => 55.0,
            TechNode::N45 => 45.0,
            TechNode::N40 => 40.0,
            TechNode::N32 => 32.0,
            TechNode::N22 => 22.0,
            TechNode::N16 => 16.0,
            TechNode::N11 => 11.0,
        }
    }

    /// The year the paper's projection (Table 6) associates with this
    /// node, where applicable.
    pub fn projection_year(self) -> Option<u32> {
        match self {
            TechNode::N40 => Some(2011),
            TechNode::N32 => Some(2013),
            TechNode::N22 => Some(2016),
            TechNode::N16 => Some(2019),
            TechNode::N11 => Some(2022),
            _ => None,
        }
    }

    /// The factor by which an area shrinks when a design moves from this
    /// node to `target`: `(target/self)²`.
    ///
    /// ```
    /// use ucore_devices::TechNode;
    /// let s = TechNode::N55.area_scale_to(TechNode::N40);
    /// assert!((s - (40.0f64 / 55.0).powi(2)).abs() < 1e-12);
    /// ```
    pub fn area_scale_to(self, target: TechNode) -> f64 {
        (target.feature_nm() / self.feature_nm()).powi(2)
    }

    /// The paper's area-normalization convention for "perf/mm² in
    /// 40nm/45nm": 45 nm and 40 nm count as the same generation (factor
    /// 1.0); all other nodes scale by the square of the feature ratio
    /// to 40 nm.
    pub fn paper_normalization_to_40nm(self) -> f64 {
        match self {
            TechNode::N45 | TechNode::N40 => 1.0,
            other => other.area_scale_to(TechNode::N40),
        }
    }

    /// Generations between two nodes in the projection sequence, if both
    /// belong to it (`N40 → N22` is 2).
    pub fn generations_to(self, target: TechNode) -> Option<i32> {
        let idx = |n: TechNode| Self::PROJECTION.iter().position(|&p| p == n);
        Some(idx(target)? as i32 - idx(self)? as i32)
    }
}

impl PartialOrd for TechNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TechNode {
    /// Orders by feature size: a *smaller* (newer) node compares as less.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.feature_nm().total_cmp(&other.feature_nm())
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm", self.feature_nm() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_sizes_are_descending_in_all() {
        for pair in TechNode::ALL.windows(2) {
            assert!(pair[0].feature_nm() > pair[1].feature_nm());
        }
    }

    #[test]
    fn projection_nodes_have_years() {
        let years: Vec<u32> = TechNode::PROJECTION
            .iter()
            .map(|n| n.projection_year().unwrap())
            .collect();
        assert_eq!(years, vec![2011, 2013, 2016, 2019, 2022]);
        assert_eq!(TechNode::N65.projection_year(), None);
    }

    #[test]
    fn area_scale_round_trips() {
        let down = TechNode::N40.area_scale_to(TechNode::N11);
        let up = TechNode::N11.area_scale_to(TechNode::N40);
        assert!((down * up - 1.0).abs() < 1e-12);
        assert!(down < 1.0, "moving to a smaller node shrinks area");
    }

    #[test]
    fn paper_normalization_treats_45_as_40() {
        assert_eq!(TechNode::N45.paper_normalization_to_40nm(), 1.0);
        assert_eq!(TechNode::N40.paper_normalization_to_40nm(), 1.0);
        let n55 = TechNode::N55.paper_normalization_to_40nm();
        assert!((n55 - (40.0f64 / 55.0).powi(2)).abs() < 1e-12);
        let n65 = TechNode::N65.paper_normalization_to_40nm();
        assert!((n65 - (40.0f64 / 65.0).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn gtx285_area_normalization_reproduces_table4() {
        // GTX285 core area 338 mm² at 55 nm, MMM at 425 GFLOP/s.
        // Table 4 reports 2.40 (GFLOP/s)/mm² after normalizing to 40 nm.
        let area_40 = 338.0 * TechNode::N55.paper_normalization_to_40nm();
        let per_mm2 = 425.0 / area_40;
        assert!((per_mm2 - 2.40).abs() < 0.05, "got {per_mm2}");
    }

    #[test]
    fn generations_counts_projection_steps() {
        assert_eq!(TechNode::N40.generations_to(TechNode::N22), Some(2));
        assert_eq!(TechNode::N22.generations_to(TechNode::N40), Some(-2));
        assert_eq!(TechNode::N40.generations_to(TechNode::N40), Some(0));
        assert_eq!(TechNode::N65.generations_to(TechNode::N40), None);
    }

    #[test]
    fn ordering_is_by_feature_size() {
        assert!(TechNode::N11 < TechNode::N16);
        assert!(TechNode::N65 > TechNode::N40);
        let mut v = vec![TechNode::N40, TechNode::N11, TechNode::N65];
        v.sort();
        assert_eq!(v, vec![TechNode::N11, TechNode::N40, TechNode::N65]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(TechNode::N40.to_string(), "40nm");
        assert_eq!(TechNode::N11.to_string(), "11nm");
    }
}
