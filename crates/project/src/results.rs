//! Serializable projection results.

use serde::Serialize;
use ucore_core::Limiter;
use ucore_devices::TechNode;

/// One projected design point at one technology node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NodePoint {
    /// The technology node.
    pub node: TechNode,
    /// Best achievable speedup (relative to one BCE).
    pub speedup: f64,
    /// Which resource bound the design (the dashed/solid/unconnected
    /// encoding of the figures).
    pub limiter: Limiter,
    /// The optimal sequential-core size.
    pub r: f64,
    /// The usable resources at the optimum.
    pub n: f64,
    /// Total workload energy, normalized to one BCE at 40 nm.
    pub energy: f64,
}

/// One line of a figure panel: a design swept across nodes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    /// The legend label, e.g. `"(6) ASIC"`.
    pub label: String,
    /// One point per feasible node.
    pub points: Vec<NodePoint>,
}

/// One panel of a figure (one parallel fraction).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Panel {
    /// The parallel fraction `f` of this panel.
    pub f: f64,
    /// All plotted series.
    pub series: Vec<Series>,
}

/// Outcome counters for the sweep that produced a figure.
///
/// `points_ok + points_infeasible + points_failed` equals the size of
/// the figure's `(f, design, node)` grid. A healthy figure has
/// `points_failed == 0`; `repro --max-failures` polices the total
/// across all rendered figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct SweepHealth {
    /// Points with a feasible optimum.
    pub points_ok: usize,
    /// Points with no feasible design under their budgets (expected
    /// under tight scenarios; omitted from series, not an error).
    pub points_infeasible: usize,
    /// Points whose evaluation failed (contained panic or injected
    /// fault).
    pub points_failed: usize,
    /// Retry attempts consumed by the figure's points under the
    /// `--retries` policy. A resumed run restores each replayed point's
    /// journaled retry count, so this field is identical between an
    /// interrupted-and-resumed run and an uninterrupted one.
    pub retries: u64,
}

/// One contained failure recorded during figure assembly: which cell of
/// the sweep grid failed and why. The point's slot in its series is
/// simply absent; nothing else in the figure is affected.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FailureRecord {
    /// Submission index of the failed point within the figure's sweep.
    pub index: usize,
    /// The parallel fraction of the failed cell.
    pub f: f64,
    /// The series label of the failed cell.
    pub label: String,
    /// The contained panic payload or injected-fault diagnostic.
    pub message: String,
}

/// A reproduced figure: its identity and panels.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FigureData {
    /// Which figure this reproduces, e.g. `"figure-6"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The metric plotted on the y-axis.
    pub metric: Metric,
    /// One panel per swept `f`.
    pub panels: Vec<Panel>,
    /// Outcome counters for the sweep that produced this figure.
    pub health: SweepHealth,
    /// Contained failures, in submission order (empty when healthy).
    pub failures: Vec<FailureRecord>,
}

/// What a figure's y-axis shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Metric {
    /// Speedup relative to one BCE.
    Speedup,
    /// Energy normalized to one BCE at 40 nm.
    Energy,
}

impl FigureData {
    /// The panel for a given `f`, if present.
    pub fn panel(&self, f: f64) -> Option<&Panel> {
        self.panels.iter().find(|p| (p.f - f).abs() < 1e-12)
    }

    /// The value (speedup or energy, per [`Metric`]) of one series at
    /// one node, if plotted.
    pub fn value(&self, f: f64, label_contains: &str, node: TechNode) -> Option<f64> {
        let panel = self.panel(f)?;
        let series = panel
            .series
            .iter()
            .find(|s| s.label.contains(label_contains))?;
        let point = series.points.iter().find(|p| p.node == node)?;
        Some(match self.metric {
            Metric::Speedup => point.speedup,
            Metric::Energy => point.energy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureData {
        FigureData {
            id: "figure-6".into(),
            title: "FFT-1024 projection".into(),
            metric: Metric::Speedup,
            health: SweepHealth {
                points_ok: 1,
                points_infeasible: 0,
                points_failed: 0,
                retries: 0,
            },
            failures: Vec::new(),
            panels: vec![Panel {
                f: 0.9,
                series: vec![Series {
                    label: "(6) ASIC".into(),
                    points: vec![NodePoint {
                        node: TechNode::N40,
                        speedup: 12.0,
                        limiter: Limiter::Bandwidth,
                        r: 4.0,
                        n: 5.0,
                        energy: 0.5,
                    }],
                }],
            }],
        }
    }

    #[test]
    fn lookup_by_f_label_node() {
        let fig = sample();
        assert_eq!(fig.value(0.9, "ASIC", TechNode::N40), Some(12.0));
        assert_eq!(fig.value(0.9, "ASIC", TechNode::N11), None);
        assert_eq!(fig.value(0.5, "ASIC", TechNode::N40), None);
        assert_eq!(fig.value(0.9, "GTX", TechNode::N40), None);
    }

    #[test]
    fn energy_metric_switches_value() {
        let mut fig = sample();
        fig.metric = Metric::Energy;
        assert_eq!(fig.value(0.9, "ASIC", TechNode::N40), Some(0.5));
    }

    #[test]
    fn serde_round_trip() {
        let fig = sample();
        // Parsing and rewriting gives back the exact bytes, and
        // shortest round-trip floats are unique per bit pattern, so the
        // JSON carries every value losslessly.
        let json = serde_json::to_string(&fig).unwrap();
        let back: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
