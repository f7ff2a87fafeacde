//! Figure 5: long-term ITRS 2009 trends, normalized to 2011.
//!
//! The figure plots four series over the roadmap horizon: package pin
//! count, supply voltage (Vdd), gate capacitance, and the combined
//! technology power reduction (∝ Vdd² · C_gate). The anchor values below
//! are reconstructed from the quantities the paper states — pins grow
//! < 1.5× over fifteen years, the combined power per transistor falls
//! only ~4–5× (Table 6's 1 / 0.75 / 0.5 / 0.36 / 0.25) — with yearly
//! values linearly interpolated between node years.

use serde::Serialize;

/// The four trend lines of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Trend {
    /// Package pin count.
    PackagePins,
    /// Supply voltage.
    Vdd,
    /// Gate capacitance.
    GateCapacitance,
    /// Combined technology power reduction (the Table 6 factor).
    CombinedPowerReduction,
}

impl Trend {
    /// All trends, in the figure's legend order.
    pub const ALL: [Trend; 4] = [
        Trend::PackagePins,
        Trend::Vdd,
        Trend::GateCapacitance,
        Trend::CombinedPowerReduction,
    ];

    /// The legend label.
    pub fn label(self) -> &'static str {
        match self {
            Trend::PackagePins => "Package pins",
            Trend::Vdd => "Vdd",
            Trend::GateCapacitance => "Gate capacitance",
            Trend::CombinedPowerReduction => "Combined technology power reduction",
        }
    }
}

/// One `(year, value)` sample of a trend, normalized to 2011 = 1.0.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TrendPoint {
    /// Calendar year.
    pub year: u32,
    /// Value relative to 2011.
    pub value: f64,
}

/// A full normalized series for one trend.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrendSeries {
    trend: Trend,
    points: Vec<TrendPoint>,
}

/// Anchor years: the node years of the projection.
const ANCHOR_YEARS: [u32; 5] = [2011, 2013, 2016, 2019, 2022];

/// Anchor values per trend at the node years (2011-normalized).
fn anchors(trend: Trend) -> [f64; 5] {
    match trend {
        // Pins grow roughly 2%/year: < 1.5x over fifteen years.
        Trend::PackagePins => [1.0, 1.04, 1.10, 1.17, 1.25],
        // Vdd creeps down slowly in the 2009 roadmap (0.97 V -> ~0.77 V).
        Trend::Vdd => [1.0, 0.95, 0.89, 0.84, 0.80],
        // Gate capacitance shrinks with feature size.
        Trend::GateCapacitance => [1.0, 0.83, 0.63, 0.51, 0.39],
        // The Table 6 factor: Vdd^2 * C to within rounding.
        Trend::CombinedPowerReduction => [1.0, 0.75, 0.5, 0.36, 0.25],
    }
}

impl TrendSeries {
    /// Builds the yearly series for a trend, 2011 through 2022, linearly
    /// interpolated between node years.
    pub fn itrs_2009(trend: Trend) -> Self {
        let anchor_vals = anchors(trend);
        let mut points = Vec::new();
        for year in ANCHOR_YEARS[0]..=ANCHOR_YEARS[4] {
            points.push(TrendPoint { year, value: interp(year, &anchor_vals) });
        }
        TrendSeries { trend, points }
    }

    /// Which trend this series describes.
    pub fn trend(&self) -> Trend {
        self.trend
    }

    /// The yearly samples.
    pub fn points(&self) -> &[TrendPoint] {
        &self.points
    }

    /// The value at a given year, if covered.
    pub fn at(&self, year: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.year == year)
            .map(|p| p.value)
    }
}

/// Linear interpolation over the anchor grid.
fn interp(year: u32, values: &[f64; 5]) -> f64 {
    if year <= ANCHOR_YEARS[0] {
        return values[0];
    }
    if year >= ANCHOR_YEARS[4] {
        return values[4];
    }
    for seg in 0..4 {
        let (y0, y1) = (ANCHOR_YEARS[seg], ANCHOR_YEARS[seg + 1]);
        if (y0..=y1).contains(&year) {
            let t = f64::from(year - y0) / f64::from(y1 - y0);
            return values[seg] + t * (values[seg + 1] - values[seg]);
        }
    }
    unreachable!("year within anchor range is covered by a segment")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_series_start_at_unity() {
        for trend in Trend::ALL {
            let s = TrendSeries::itrs_2009(trend);
            assert_eq!(s.at(2011), Some(1.0), "{}", trend.label());
        }
    }

    #[test]
    fn combined_power_matches_table6() {
        let s = TrendSeries::itrs_2009(Trend::CombinedPowerReduction);
        assert_eq!(s.at(2011), Some(1.0));
        assert_eq!(s.at(2013), Some(0.75));
        assert_eq!(s.at(2016), Some(0.5));
        assert_eq!(s.at(2019), Some(0.36));
        assert_eq!(s.at(2022), Some(0.25));
    }

    #[test]
    fn pins_grow_less_than_1_5x() {
        let s = TrendSeries::itrs_2009(Trend::PackagePins);
        for p in s.points() {
            assert!(p.value < 1.5);
            assert!(p.value >= 1.0);
        }
    }

    #[test]
    fn everything_but_pins_declines() {
        for trend in [Trend::Vdd, Trend::GateCapacitance, Trend::CombinedPowerReduction] {
            let s = TrendSeries::itrs_2009(trend);
            for pair in s.points().windows(2) {
                assert!(
                    pair[1].value <= pair[0].value + 1e-12,
                    "{} rose at {}",
                    trend.label(),
                    pair[1].year
                );
            }
        }
    }

    #[test]
    fn combined_is_consistent_with_vdd_squared_times_cap() {
        // The physics: dynamic power per transistor ∝ C · Vdd². The
        // anchors were chosen so the product tracks Table 6 within
        // rounding.
        let vdd = TrendSeries::itrs_2009(Trend::Vdd);
        let cap = TrendSeries::itrs_2009(Trend::GateCapacitance);
        let combined = TrendSeries::itrs_2009(Trend::CombinedPowerReduction);
        for year in [2013u32, 2016, 2019, 2022] {
            let predicted = vdd.at(year).unwrap().powi(2) * cap.at(year).unwrap();
            let table = combined.at(year).unwrap();
            assert!(
                (predicted - table).abs() / table < 0.07,
                "year {year}: {predicted} vs {table}"
            );
        }
    }

    #[test]
    fn yearly_coverage_is_complete() {
        let s = TrendSeries::itrs_2009(Trend::Vdd);
        assert_eq!(s.points().len(), 12); // 2011..=2022
        assert_eq!(s.at(2010), None);
        assert!(s.at(2017).is_some());
    }

    #[test]
    fn interpolation_is_between_anchors() {
        let s = TrendSeries::itrs_2009(Trend::GateCapacitance);
        let v2014 = s.at(2014).unwrap();
        assert!(v2014 < s.at(2013).unwrap());
        assert!(v2014 > s.at(2016).unwrap());
    }

    #[test]
    fn labels_match_figure_legend() {
        assert_eq!(Trend::PackagePins.label(), "Package pins");
        assert_eq!(
            Trend::CombinedPowerReduction.label(),
            "Combined technology power reduction"
        );
    }
}
