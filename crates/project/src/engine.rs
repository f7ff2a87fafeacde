//! The projection engine.
//!
//! For each design (a CMP baseline or a U-core heterogeneous chip), each
//! projection node, and each parallel fraction, the engine:
//!
//! 1. converts the node's Table 6 budgets into model units via the
//!    workload's BCE calibration (`A` in BCE area, `P` in BCE power —
//!    growing as power per transistor shrinks — and `B` in compulsory
//!    bandwidth units);
//! 2. sweeps the sequential-core size `r` up to the scenario limit,
//!    takes the best speedup, and records which resource bound the
//!    design (the paper's dashed/solid/unconnected distinction);
//! 3. computes the design's normalized energy for the Figure 10 study.
//!
//! The ASIC MMM core is exempted from the bandwidth bound, as in the
//! paper (its 40 nm design blocks at `N ≥ 2048` and needs almost no
//! off-chip traffic).

use crate::results::NodePoint;
use crate::scenario::Scenario;
use serde::Serialize;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use ucore_calibrate::{composite_workload, BceCalibration, Table5, WorkloadColumn};
use ucore_core::{
    Budgets, ChipSpec, EnergyModel, EvalCache, Limiter, Optimizer, ParallelFraction,
    PortfolioChip, SegmentedWorkload,
};
use ucore_devices::DeviceId;
use ucore_itrs::NodeParams;
use ucore_workloads::WorkloadKind;

/// Errors raised while projecting.
#[derive(Debug, Clone, PartialEq)]
pub enum ProjectionError {
    /// Calibration failed (no measurement for the requested cell).
    Calibration(String),
    /// No feasible design existed at some node for a design that the
    /// study expects to be plottable.
    Infeasible {
        /// Explanation from the model.
        reason: String,
    },
}

impl fmt::Display for ProjectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjectionError::Calibration(msg) => write!(f, "calibration failed: {msg}"),
            ProjectionError::Infeasible { reason } => f.write_str(reason),
        }
    }
}

impl Error for ProjectionError {}

/// A design plotted in the projection figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DesignId {
    /// `(0)` Symmetric CMP of i7-class cores.
    SymCmp,
    /// `(1)` Asymmetric CMP with the big core offloaded in parallel
    /// phases.
    AsymCmp,
    /// `(2..6)` A heterogeneous chip built from the device's U-cores.
    Het(DeviceId),
    /// A Multi-Amdahl chip on the composite three-kernel workload
    /// (Figure 11). Journal fingerprints tag each variant explicitly
    /// (`journal::point_fingerprint`), so variant order is free.
    Portfolio(PortfolioDesign),
}

/// How a Figure 11 chip organizes its accelerator area across the
/// composite workload's segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PortfolioDesign {
    /// One programmable U-core (GPU, or an FPGA reconfigured between
    /// kernels) serving every segment with the *full* parallel area,
    /// time-multiplexed.
    Shared(DeviceId),
    /// Kernel-specific U-cores of this device splitting the parallel
    /// area under the KKT allocator — fixed-function silicon, so each
    /// segment only ever touches its own slice.
    Split(DeviceId),
}

impl PortfolioDesign {
    /// The underlying device whose Table 5 cells parameterize every
    /// segment.
    pub fn device(&self) -> DeviceId {
        match self {
            PortfolioDesign::Shared(d) | PortfolioDesign::Split(d) => *d,
        }
    }

    /// The legend label. The leading index doubles as the plot glyph
    /// (second character), so each Figure 11 series gets a distinct one.
    pub fn label(&self) -> String {
        let idx = match self {
            PortfolioDesign::Shared(DeviceId::Gtx285) => 0,
            PortfolioDesign::Shared(DeviceId::V6Lx760) => 1,
            PortfolioDesign::Split(DeviceId::V6Lx760) => 2,
            PortfolioDesign::Split(DeviceId::Asic) => 3,
            PortfolioDesign::Shared(_) => 8,
            PortfolioDesign::Split(_) => 9,
        };
        let kind = match self {
            PortfolioDesign::Shared(_) => "shared",
            PortfolioDesign::Split(_) => "split",
        };
        format!("({idx}) {} {kind}", self.device().label())
    }
}

impl DesignId {
    /// The label used in the figures' legends.
    pub fn label(&self) -> String {
        match self {
            DesignId::SymCmp => "(0) SymCMP".into(),
            DesignId::AsymCmp => "(1) AsymCMP".into(),
            DesignId::Het(d) => {
                format!("({}) {}", d.figure_index().unwrap_or(9), d.label())
            }
            DesignId::Portfolio(p) => p.label(),
        }
    }

    /// The designs a figure plots for a workload column: both CMPs plus
    /// every U-core device with a Table 5 entry for that column.
    pub fn for_column(table5: &Table5, column: WorkloadColumn) -> Vec<DesignId> {
        let mut designs = vec![DesignId::SymCmp, DesignId::AsymCmp];
        for device in [
            DeviceId::V6Lx760,
            DeviceId::Gtx285,
            DeviceId::Gtx480,
            DeviceId::R5870,
            DeviceId::Asic,
        ] {
            if table5.ucore(device, column).is_some() {
                designs.push(DesignId::Het(device));
            }
        }
        designs
    }

    /// The Figure 11 series: single shared U-cores (the GPU and the
    /// reconfigurable FPGA) against split portfolios (the FPGA
    /// partitioned, and the kernel-specific ASIC bank — the only way an
    /// ASIC can serve three kernels at all).
    pub fn portfolio_designs() -> Vec<DesignId> {
        vec![
            DesignId::Portfolio(PortfolioDesign::Shared(DeviceId::Gtx285)),
            DesignId::Portfolio(PortfolioDesign::Shared(DeviceId::V6Lx760)),
            DesignId::Portfolio(PortfolioDesign::Split(DeviceId::V6Lx760)),
            DesignId::Portfolio(PortfolioDesign::Split(DeviceId::Asic)),
        ]
    }
}

impl fmt::Display for DesignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The projection engine for one scenario.
#[derive(Debug, Clone)]
pub struct ProjectionEngine {
    scenario: Scenario,
    table5: Table5,
    cache: Arc<EvalCache>,
    /// The scenario's `r` sweep, validated once at construction so the
    /// hot path never re-validates (and never panics).
    optimizer: Optimizer,
}

impl ProjectionEngine {
    /// Builds an engine, deriving Table 5 from the simulated lab. The
    /// engine memoizes design-point evaluations in the process-wide
    /// [`EvalCache::global`] cache, so identical `(design, node, f)`
    /// points shared between figures and scenarios are optimized once.
    ///
    /// # Errors
    ///
    /// Returns [`ProjectionError::Calibration`] if the lab cannot supply
    /// the i7 baselines (never the case for the shipped data).
    pub fn new(scenario: Scenario) -> Result<Self, ProjectionError> {
        Self::with_cache(scenario, EvalCache::global().clone())
    }

    /// Builds an engine backed by a specific evaluation cache (e.g. a
    /// fresh private cache for benchmarking or isolation).
    ///
    /// # Errors
    ///
    /// Same as [`ProjectionEngine::new`].
    pub fn with_cache(
        scenario: Scenario,
        cache: Arc<EvalCache>,
    ) -> Result<Self, ProjectionError> {
        let table5 =
            Table5::derive().map_err(|e| ProjectionError::Calibration(e.to_string()))?;
        let optimizer =
            Optimizer::new(1.0, scenario.r_max(), 1.0).map_err(|e| {
                ProjectionError::Calibration(format!(
                    "scenario {:?} has an invalid r sweep: {e}",
                    scenario.name()
                ))
            })?;
        Ok(ProjectionEngine { scenario, table5, cache, optimizer })
    }

    /// The engine's scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The derived Table 5 the engine projects from.
    pub fn table5(&self) -> &Table5 {
        &self.table5
    }

    /// The evaluation cache backing this engine.
    pub fn cache(&self) -> &Arc<EvalCache> {
        &self.cache
    }

    /// The `r` sweep this scenario prescribes (validated at engine
    /// construction).
    pub fn optimizer(&self) -> Optimizer {
        self.optimizer
    }

    /// Evaluates one `(spec, node, budgets, f)` cell: the memoized
    /// optimal design plus its node-local normalized energy. `None` when
    /// no feasible design exists (e.g. under the 10 W scenario).
    pub(crate) fn node_point(
        &self,
        spec: &ChipSpec,
        node: &NodeParams,
        budgets: &Budgets,
        f: ParallelFraction,
        use_cache: bool,
    ) -> Option<NodePoint> {
        let optimizer = self.optimizer();
        let best = {
            let _span = ucore_obs::span!("engine.optimize");
            if use_cache {
                self.cache.optimize(&optimizer, spec, budgets, f).ok()?
            } else {
                optimizer.optimize(spec, budgets, f).ok()?
            }
        };
        // Normalized energy at this node: linear in the node's power
        // scale. A node with an unusable power scale degrades to a NaN
        // energy (plotted as a gap), like any other energy failure.
        let energy = EnergyModel::new(node.rel_power_per_transistor)
            .and_then(|m| {
                m.breakdown(spec, f, best.evaluation.n, best.evaluation.r)
            })
            .map(|b| b.total())
            .unwrap_or(f64::NAN);
        Some(NodePoint {
            node: node.node,
            speedup: best.evaluation.speedup.get(),
            limiter: best.evaluation.limiter,
            r: best.evaluation.r,
            n: best.evaluation.n,
            energy,
        })
    }

    /// Evaluates one Figure 11 cell: the best composite-workload
    /// portfolio chip over the scenario's `r` sweep. `None` when no `r`
    /// leaves both area and power for the accelerators.
    ///
    /// For each candidate `r` the serial core claims `r` BCE of area and
    /// `r^(α/2)` of power, leaving `A − r` and `P − r^(α/2)` for the
    /// parallel phase. Only one accelerator runs at a time (the segments
    /// are phases of one program), so power caps each segment's area at
    /// `P_parallel / φ_k` rather than their sum:
    ///
    /// - [`PortfolioDesign::Shared`]: one programmable U-core serves all
    ///   segments with area `min(A_parallel, min_k P_parallel/φ_k)`;
    /// - [`PortfolioDesign::Split`]: the KKT allocator splits
    ///   `A_parallel` into kernel-specific U-cores, each capped at its
    ///   own `P_parallel / φ_k`.
    ///
    /// Portfolio points carry no energy model (`energy` is NaN, plotted
    /// as a gap) and are bandwidth-exempt like the ASIC MMM core — the
    /// composite study isolates the area/power trade.
    pub(crate) fn portfolio_point(
        &self,
        design: PortfolioDesign,
        node: &NodeParams,
        budgets: &Budgets,
        f: ParallelFraction,
    ) -> Option<NodePoint> {
        let _span = ucore_obs::span!("engine.portfolio");
        let workload = composite_workload(&self.table5, design.device(), f).ok()?;
        let power_law = self.scenario.power_law();
        let mut best: Option<NodePoint> = None;
        for r in self.optimizer().candidate_values() {
            let a_par = budgets.area() - r;
            if a_par <= 0.0 {
                continue;
            }
            let p_par = budgets.power() - power_law.power_of_area(r);
            if p_par <= 0.0 {
                continue;
            }
            let evaluated = match design {
                PortfolioDesign::Shared(_) => shared_point(&workload, r, a_par, p_par),
                PortfolioDesign::Split(_) => split_point(&workload, r, a_par, p_par),
            };
            let Some((speedup, used, power_bound)) = evaluated else {
                continue;
            };
            // First-wins strict-`>` argmax, the workspace's tie policy.
            if best.as_ref().is_none_or(|b| speedup > b.speedup) {
                best = Some(NodePoint {
                    node: node.node,
                    speedup,
                    limiter: if power_bound { Limiter::Power } else { Limiter::Area },
                    r,
                    n: r + used,
                    energy: f64::NAN,
                });
            }
        }
        best
    }

    /// The model budgets a portfolio design sweeps under: the MMM
    /// column's BCE anchoring (the composite's first kernel) with the
    /// bandwidth bound exempted.
    ///
    /// # Errors
    ///
    /// Same as [`ProjectionEngine::budgets`].
    pub fn portfolio_budgets(&self, node: &NodeParams) -> Result<Budgets, ProjectionError> {
        self.budgets(node, WorkloadColumn::Mmm, true)
    }

    /// The chip spec for a design on a workload column.
    ///
    /// Returns `None` when the column has no published U-core for the
    /// device, and always for portfolio designs — they are evaluated by
    /// `ProjectionEngine::portfolio_point`, not the single-U-core
    /// optimizer.
    pub fn chip_spec(&self, design: DesignId, column: WorkloadColumn) -> Option<ChipSpec> {
        let spec = match design {
            DesignId::SymCmp => ChipSpec::symmetric(),
            DesignId::AsymCmp => ChipSpec::asymmetric_offload(),
            DesignId::Het(device) => {
                ChipSpec::heterogeneous(self.table5.ucore(device, column)?)
            }
            DesignId::Portfolio(_) => return None,
        };
        Some(spec.with_power_law(self.scenario.power_law()))
    }

    /// Whether the paper exempts this (design, column) pair from the
    /// bandwidth bound. Portfolio designs are always exempt (the
    /// composite study isolates the area/power trade).
    pub fn bandwidth_exempt(design: DesignId, column: WorkloadColumn) -> bool {
        matches!(
            (design, column),
            (DesignId::Het(DeviceId::Asic), WorkloadColumn::Mmm)
                | (DesignId::Portfolio(_), _)
        )
    }

    /// The model budgets for one node of the scenario's roadmap, in BCE
    /// units for the given workload column.
    ///
    /// # Errors
    ///
    /// Returns [`ProjectionError::Calibration`] if the BCE cannot be
    /// anchored for the column's workload.
    pub fn budgets(
        &self,
        node: &NodeParams,
        column: WorkloadColumn,
        bandwidth_exempt: bool,
    ) -> Result<Budgets, ProjectionError> {
        let bce = BceCalibration::derive(column.workload())
            .map_err(|e| ProjectionError::Calibration(e.to_string()))?;
        let power = bce.power_budget_units(
            node.core_power_budget_w,
            node.rel_power_per_transistor,
        );
        let bandwidth = if bandwidth_exempt {
            f64::MAX / 4.0
        } else {
            bce.bandwidth_budget_units(node.bandwidth_gb_s)
        };
        Budgets::new(node.max_area_bce, power, bandwidth)
            .map_err(|e| ProjectionError::Infeasible { reason: e.to_string() })
    }

    /// Projects one design across every node of the roadmap at a given
    /// parallel fraction. Nodes where no feasible design exists are
    /// omitted (this happens under the 10 W scenario for power-hungry
    /// configurations).
    ///
    /// # Errors
    ///
    /// Returns [`ProjectionError::Calibration`] for columns the design
    /// cannot run (no Table 5 entry).
    pub fn project(
        &self,
        design: DesignId,
        column: WorkloadColumn,
        f: ParallelFraction,
    ) -> Result<Vec<NodePoint>, ProjectionError> {
        let spec = self.chip_spec(design, column).ok_or_else(|| {
            ProjectionError::Calibration(format!("no {column} u-core for {design}"))
        })?;
        let exempt = Self::bandwidth_exempt(design, column);
        let mut points = Vec::new();
        for node in self.scenario.roadmap().nodes() {
            let budgets = self.budgets(node, column, exempt)?;
            if let Some(point) = self.node_point(&spec, node, &budgets, f, true) {
                points.push(point);
            }
        }
        Ok(points)
    }

    /// Projects one design year by year (2011–2022) using the roadmap's
    /// interpolated parameters — a finer-grained view than the paper's
    /// node-granular figures, built on [`ucore_itrs::Roadmap::at_year`].
    ///
    /// Infeasible years are omitted, like infeasible nodes in
    /// [`project`](Self::project).
    ///
    /// # Errors
    ///
    /// Returns [`ProjectionError::Calibration`] for unpublished cells.
    pub fn project_yearly(
        &self,
        design: DesignId,
        column: WorkloadColumn,
        f: ParallelFraction,
    ) -> Result<Vec<YearPoint>, ProjectionError> {
        let spec = self.chip_spec(design, column).ok_or_else(|| {
            ProjectionError::Calibration(format!("no {column} u-core for {design}"))
        })?;
        let exempt = Self::bandwidth_exempt(design, column);
        let optimizer = self.optimizer();
        let roadmap = self.scenario.roadmap();
        let (first, last) = {
            let nodes = roadmap.nodes();
            (nodes[0].year, nodes[nodes.len() - 1].year)
        };
        let mut points = Vec::new();
        for year in first..=last {
            let Ok(params) = roadmap.at_year(year) else {
                continue;
            };
            let Ok(budgets) = self.budgets(&params, column, exempt) else {
                continue;
            };
            let Ok(best) = self.cache.optimize(&optimizer, &spec, &budgets, f) else {
                continue;
            };
            points.push(YearPoint {
                year,
                speedup: best.evaluation.speedup.get(),
                limiter: best.evaluation.limiter,
            });
        }
        Ok(points)
    }

    /// Convenience: the speedup at a single (design, column, node, f)
    /// point, if feasible.
    pub fn speedup_at(
        &self,
        design: DesignId,
        column: WorkloadColumn,
        node: ucore_devices::TechNode,
        f: ParallelFraction,
    ) -> Option<f64> {
        self.project(design, column, f)
            .ok()?
            .into_iter()
            .find(|p| p.node == node)
            .map(|p| p.speedup)
    }
}

/// One year of a fine-grained projection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct YearPoint {
    /// Calendar year.
    pub year: u32,
    /// Best achievable speedup.
    pub speedup: f64,
    /// The binding resource.
    pub limiter: ucore_core::Limiter,
}

/// One shared-design candidate: the single programmable U-core runs
/// every segment time-multiplexed on the same silicon, so it can use the
/// full parallel area — up to the tightest per-kernel power cap.
/// Returns `(speedup, used_area, power_bound)`.
fn shared_point(
    workload: &SegmentedWorkload,
    r: f64,
    a_par: f64,
    p_par: f64,
) -> Option<(f64, f64, bool)> {
    let power_cap = workload
        .segments()
        .iter()
        .filter(|s| s.weight() > 0.0)
        .map(|s| p_par / s.ucore().phi())
        .fold(f64::INFINITY, f64::min);
    let area = a_par.min(power_cap);
    if area <= 0.0 {
        return None;
    }
    let chip = PortfolioChip::new(r + a_par, r, workload.clone()).ok()?;
    let areas = vec![area; workload.segments().len()];
    let speedup = chip.speedup_for(&areas).ok()?;
    Some((speedup.get(), area, power_cap < a_par))
}

/// One split-design candidate: kernel-specific U-cores divide the
/// parallel area under the KKT allocator, each capped at its own
/// `P_parallel / φ_k` (only one is powered at a time). Returns
/// `(speedup, used_area, power_bound)`.
fn split_point(
    workload: &SegmentedWorkload,
    r: f64,
    a_par: f64,
    p_par: f64,
) -> Option<(f64, f64, bool)> {
    let mut capped = Vec::with_capacity(workload.segments().len());
    for seg in workload.segments() {
        capped.push(seg.with_max_area(p_par / seg.ucore().phi()).ok()?);
    }
    let workload = SegmentedWorkload::new(workload.serial_weight(), capped).ok()?;
    let chip = PortfolioChip::new(r + a_par, r, workload).ok()?;
    let alloc = chip.allocate().ok()?;
    let used: f64 = alloc.areas.iter().sum();
    let power_bound = chip
        .workload()
        .segments()
        .iter()
        .zip(&alloc.areas)
        .any(|(seg, &a)| seg.max_area().is_some_and(|cap| a >= cap));
    Some((alloc.speedup.get(), used, power_bound))
}

/// The workload kinds the projections cover, with their columns.
pub fn projection_columns() -> [(WorkloadKind, WorkloadColumn); 3] {
    [
        (WorkloadKind::Fft, WorkloadColumn::Fft1024),
        (WorkloadKind::Mmm, WorkloadColumn::Mmm),
        (WorkloadKind::BlackScholes, WorkloadColumn::Bs),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucore_core::Limiter;
    use ucore_devices::TechNode;

    fn engine() -> ProjectionEngine {
        ProjectionEngine::new(Scenario::baseline()).unwrap()
    }

    fn f(v: f64) -> ParallelFraction {
        ParallelFraction::new(v).unwrap()
    }

    #[test]
    fn designs_per_column_match_figures() {
        let e = engine();
        // Figure 6 (FFT): SymCMP, AsymCMP, LX760, GTX285, GTX480, ASIC.
        let fft = DesignId::for_column(e.table5(), WorkloadColumn::Fft1024);
        assert_eq!(fft.len(), 6);
        assert!(!fft.contains(&DesignId::Het(DeviceId::R5870)));
        // Figure 7 (MMM): all seven.
        let mmm = DesignId::for_column(e.table5(), WorkloadColumn::Mmm);
        assert_eq!(mmm.len(), 7);
        // Figure 8 (BS): five.
        let bs = DesignId::for_column(e.table5(), WorkloadColumn::Bs);
        assert_eq!(bs.len(), 5);
    }

    #[test]
    fn budgets_scale_across_nodes() {
        let e = engine();
        let roadmap = e.scenario().roadmap().clone();
        let b40 = e
            .budgets(&roadmap.node(TechNode::N40).unwrap(), WorkloadColumn::Mmm, false)
            .unwrap();
        let b11 = e
            .budgets(&roadmap.node(TechNode::N11).unwrap(), WorkloadColumn::Mmm, false)
            .unwrap();
        assert!(b11.area() > b40.area());
        assert!(b11.power() > b40.power());
        assert!(b11.bandwidth() > b40.bandwidth());
        // Area grows ~16x, power only ~4x: the dark-silicon squeeze.
        assert!((b11.area() / b40.area() - 15.7).abs() < 1.0);
        assert!((b11.power() / b40.power() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn asic_fft_is_bandwidth_limited_from_the_start() {
        // Section 6.1: "At all values of f, the ASIC achieves the highest
        // level of performance but cannot scale further due to bandwidth
        // limitations."
        let e = engine();
        let pts = e
            .project(DesignId::Het(DeviceId::Asic), WorkloadColumn::Fft1024, f(0.99))
            .unwrap();
        assert_eq!(pts.len(), 5);
        for p in &pts {
            assert_eq!(p.limiter, Limiter::Bandwidth, "{:?}", p.node);
        }
    }

    #[test]
    fn asic_mmm_is_never_bandwidth_limited() {
        let e = engine();
        let pts = e
            .project(DesignId::Het(DeviceId::Asic), WorkloadColumn::Mmm, f(0.999))
            .unwrap();
        for p in &pts {
            assert_ne!(p.limiter, Limiter::Bandwidth, "{:?}", p.node);
        }
    }

    #[test]
    fn asic_tops_every_fft_chart() {
        let e = engine();
        for fv in [0.5, 0.9, 0.99, 0.999] {
            let asic = e
                .speedup_at(
                    DesignId::Het(DeviceId::Asic),
                    WorkloadColumn::Fft1024,
                    TechNode::N11,
                    f(fv),
                )
                .unwrap();
            for design in [
                DesignId::SymCmp,
                DesignId::AsymCmp,
                DesignId::Het(DeviceId::Gtx285),
                DesignId::Het(DeviceId::Gtx480),
                DesignId::Het(DeviceId::V6Lx760),
            ] {
                let other = e
                    .speedup_at(design, WorkloadColumn::Fft1024, TechNode::N11, f(fv))
                    .unwrap();
                assert!(asic >= other, "f = {fv}: {design} beat the ASIC");
            }
        }
    }

    #[test]
    fn low_parallelism_erases_het_advantage() {
        // Section 6.1: "At f = 0.5, the lack of sufficient parallelism
        // results in none of the HETs providing a significant performance
        // gain over the CMPs."
        let e = engine();
        let cmp = e
            .speedup_at(DesignId::AsymCmp, WorkloadColumn::Fft1024, TechNode::N11, f(0.5))
            .unwrap();
        let gpu = e
            .speedup_at(
                DesignId::Het(DeviceId::Gtx480),
                WorkloadColumn::Fft1024,
                TechNode::N11,
                f(0.5),
            )
            .unwrap();
        assert!(gpu / cmp < 1.6, "HET/CMP at f=0.5 was {}", gpu / cmp);
    }

    #[test]
    fn high_parallelism_amplifies_het_advantage() {
        let e = engine();
        let cmp = e
            .speedup_at(DesignId::AsymCmp, WorkloadColumn::Mmm, TechNode::N11, f(0.999))
            .unwrap();
        let asic = e
            .speedup_at(
                DesignId::Het(DeviceId::Asic),
                WorkloadColumn::Mmm,
                TechNode::N11,
                f(0.999),
            )
            .unwrap();
        assert!(asic / cmp > 5.0, "ASIC/CMP at f=0.999 was {}", asic / cmp);
    }

    #[test]
    fn speedups_grow_across_nodes() {
        let e = engine();
        let pts = e
            .project(DesignId::AsymCmp, WorkloadColumn::Mmm, f(0.99))
            .unwrap();
        for pair in pts.windows(2) {
            assert!(pair[1].speedup >= pair[0].speedup * 0.99);
        }
    }

    #[test]
    fn energy_declines_across_nodes() {
        let e = engine();
        let pts = e
            .project(DesignId::Het(DeviceId::Asic), WorkloadColumn::Mmm, f(0.9))
            .unwrap();
        for pair in pts.windows(2) {
            assert!(pair[1].energy <= pair[0].energy + 1e-9);
        }
    }

    #[test]
    fn yearly_projection_brackets_the_node_projection() {
        let e = engine();
        let nodes = e
            .project(DesignId::AsymCmp, WorkloadColumn::Fft1024, f(0.99))
            .unwrap();
        let years = e
            .project_yearly(DesignId::AsymCmp, WorkloadColumn::Fft1024, f(0.99))
            .unwrap();
        assert_eq!(years.len(), 12); // 2011..=2022
        // Node years agree with the coarse projection.
        for (node_point, year) in nodes.iter().zip([2011u32, 2013, 2016, 2019, 2022]) {
            let yp = years.iter().find(|p| p.year == year).unwrap();
            assert!(
                (yp.speedup - node_point.speedup).abs() < 1e-9,
                "year {year}"
            );
        }
        // And intermediate years interpolate monotonically.
        for pair in years.windows(2) {
            assert!(pair[1].speedup >= pair[0].speedup * 0.999);
        }
    }

    #[test]
    fn missing_column_is_an_error() {
        let e = engine();
        let err = e
            .project(DesignId::Het(DeviceId::R5870), WorkloadColumn::Bs, f(0.9))
            .unwrap_err();
        assert!(matches!(err, ProjectionError::Calibration(_)));
    }

    fn portfolio_points(
        e: &ProjectionEngine,
        design: PortfolioDesign,
        fv: f64,
    ) -> Vec<NodePoint> {
        let mut points = Vec::new();
        for node in e.scenario().roadmap().nodes() {
            let budgets = e.portfolio_budgets(node).unwrap();
            if let Some(p) = e.portfolio_point(design, node, &budgets, f(fv)) {
                points.push(p);
            }
        }
        points
    }

    #[test]
    fn portfolio_labels_have_distinct_glyph_characters() {
        let designs = DesignId::portfolio_designs();
        assert_eq!(designs.len(), 4);
        let glyphs: std::collections::BTreeSet<char> = designs
            .iter()
            .map(|d| d.label().chars().nth(1).unwrap())
            .collect();
        assert_eq!(glyphs.len(), designs.len(), "series glyphs collide");
        // Portfolio designs never map to a single-U-core chip spec and
        // are always bandwidth-exempt.
        for d in designs {
            assert!(e_chip_spec_is_none(d));
            assert!(ProjectionEngine::bandwidth_exempt(d, WorkloadColumn::Mmm));
            assert!(ProjectionEngine::bandwidth_exempt(d, WorkloadColumn::Bs));
        }
    }

    fn e_chip_spec_is_none(d: DesignId) -> bool {
        engine().chip_spec(d, WorkloadColumn::Mmm).is_none()
    }

    #[test]
    fn every_portfolio_design_projects_across_all_nodes() {
        let e = engine();
        for design in DesignId::portfolio_designs() {
            let DesignId::Portfolio(p) = design else { unreachable!() };
            let pts = portfolio_points(&e, p, 0.99);
            assert_eq!(pts.len(), 5, "{design}");
            for pair in pts.windows(2) {
                assert!(
                    pair[1].speedup >= pair[0].speedup * 0.99,
                    "{design} regressed across nodes"
                );
            }
            for pt in &pts {
                assert!(pt.speedup >= 1.0, "{design} slower than baseline");
                assert!(pt.energy.is_nan(), "portfolio energy is a NaN gap");
                assert!(pt.n >= pt.r);
            }
        }
    }

    #[test]
    fn split_asic_portfolio_beats_every_shared_programmable() {
        // The kernel-specific ASIC bank is the portfolio argument in one
        // line: splitting area among fixed-function cores beats giving
        // the whole parallel region to any programmable device.
        let e = engine();
        let asic = portfolio_points(&e, PortfolioDesign::Split(DeviceId::Asic), 0.99);
        for shared in [
            PortfolioDesign::Shared(DeviceId::Gtx285),
            PortfolioDesign::Shared(DeviceId::V6Lx760),
        ] {
            let other = portfolio_points(&e, shared, 0.99);
            for (a, o) in asic.iter().zip(&other) {
                assert!(
                    a.speedup > o.speedup,
                    "{shared:?} beat the ASIC portfolio at {:?}",
                    a.node
                );
            }
        }
    }

    #[test]
    fn split_fpga_beats_shared_only_when_power_binds() {
        // Reconfiguring one big FPGA between kernels time-shares the
        // full parallel area, so under an area bound the shared device
        // can never lose to three static partitions of the same silicon.
        // Under a *power* bound the tables turn: the shared fabric must
        // be sized for its hungriest kernel (`min_k P/φ_k`), while split
        // cores are each sized to their own kernel's φ.
        let e = engine();
        let shared = portfolio_points(&e, PortfolioDesign::Shared(DeviceId::V6Lx760), 0.99);
        let split = portfolio_points(&e, PortfolioDesign::Split(DeviceId::V6Lx760), 0.99);
        let mut split_won_somewhere = false;
        for (sh, sp) in shared.iter().zip(&split) {
            if sh.limiter == Limiter::Area {
                assert!(
                    sh.speedup >= sp.speedup * (1.0 - 1e-9),
                    "split FPGA beat area-limited shared at {:?}",
                    sh.node
                );
            } else if sp.speedup > sh.speedup {
                split_won_somewhere = true;
            }
        }
        // The dark-silicon squeeze makes the late nodes power-bound, so
        // the per-kernel sizing advantage must show up somewhere.
        assert!(
            split_won_somewhere,
            "power never bound: the split-vs-shared contrast is vacuous"
        );
    }
}
