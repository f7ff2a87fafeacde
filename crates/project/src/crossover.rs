//! Crossover detection: *where* one design overtakes another.
//!
//! The paper's conclusions are crossover statements — U-cores beat CMPs
//! once `f ≥ 0.9`; flexible fabrics catch the ASIC once the bandwidth
//! wall binds; custom logic pulls away from GPUs only past `f = 0.99`
//! on MMM. This module locates those crossovers programmatically so the
//! reproduction can report them as numbers rather than read them off
//! charts.

use crate::engine::{DesignId, ProjectionEngine, ProjectionError};
use serde::Serialize;
use ucore_calibrate::WorkloadColumn;
use ucore_core::ParallelFraction;
use ucore_devices::TechNode;

/// The `f` above which `challenger` sustains at least `ratio` times the
/// `incumbent`'s speedup at a node, found by bisection over `f`.
///
/// Returns `None` if the challenger never reaches that ratio even at
/// `f = 0.9999`.
///
/// # Errors
///
/// Propagates projection errors (unpublished cells).
pub fn f_crossover(
    engine: &ProjectionEngine,
    challenger: DesignId,
    incumbent: DesignId,
    column: WorkloadColumn,
    node: TechNode,
    ratio: f64,
) -> Result<Option<f64>, ProjectionError> {
    let advantage = |fv: f64| -> Result<Option<f64>, ProjectionError> {
        let f = ParallelFraction::new(fv)
            .map_err(|e| ProjectionError::Infeasible { reason: e.to_string() })?;
        let c = engine
            .project(challenger, column, f)?
            .into_iter()
            .find(|p| p.node == node);
        let i = engine
            .project(incumbent, column, f)?
            .into_iter()
            .find(|p| p.node == node);
        Ok(match (c, i) {
            (Some(c), Some(i)) => Some(c.speedup / i.speedup),
            _ => None,
        })
    };

    let hi = 0.9999;
    match advantage(hi)? {
        Some(a) if a >= ratio => {}
        _ => return Ok(None),
    }
    let mut lo = 0.0001;
    if advantage(lo)?.is_some_and(|a| a >= ratio) {
        return Ok(Some(lo));
    }
    let mut hi = hi;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if advantage(mid)?.is_some_and(|a| a >= ratio) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Some(hi))
}

/// The first projection node (if any) at which `challenger` comes within
/// `fraction` of `incumbent`'s speedup at a fixed `f` — e.g. "the FPGA
/// reaches ASIC-like performance as early as 32 nm".
///
/// # Errors
///
/// Propagates projection errors.
pub fn node_crossover(
    engine: &ProjectionEngine,
    challenger: DesignId,
    incumbent: DesignId,
    column: WorkloadColumn,
    f: ParallelFraction,
    fraction: f64,
) -> Result<Option<TechNode>, ProjectionError> {
    let c = engine.project(challenger, column, f)?;
    let i = engine.project(incumbent, column, f)?;
    for node in TechNode::PROJECTION {
        let cv = c.iter().find(|p| p.node == node).map(|p| p.speedup);
        let iv = i.iter().find(|p| p.node == node).map(|p| p.speedup);
        if let (Some(cv), Some(iv)) = (cv, iv) {
            if cv >= fraction * iv {
                return Ok(Some(node));
            }
        }
    }
    Ok(None)
}

/// A named crossover record for reporting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrossoverRecord {
    /// What the crossover describes.
    pub description: String,
    /// The located value (`f` or a node year), if it exists.
    pub value: Option<f64>,
}

/// The paper's headline crossovers, located live.
///
/// # Errors
///
/// Propagates projection errors.
pub fn paper_crossovers(engine: &ProjectionEngine) -> Result<Vec<CrossoverRecord>, ProjectionError> {
    use ucore_devices::DeviceId;
    let mut out = Vec::new();

    // 1. HET beats the AsymCMP by 1.5x on FFT at 11 nm starting at f = ?
    let f1 = f_crossover(
        engine,
        DesignId::Het(DeviceId::Asic),
        DesignId::AsymCmp,
        WorkloadColumn::Fft1024,
        TechNode::N11,
        1.5,
    )?;
    out.push(CrossoverRecord {
        description: "FFT-1024 @11nm: ASIC HET sustains 1.5x over AsymCMP from f".into(),
        value: f1,
    });

    // 2. The FPGA reaches 95% of the ASIC's FFT speedup at which node?
    let n1 = node_crossover(
        engine,
        DesignId::Het(DeviceId::V6Lx760),
        DesignId::Het(DeviceId::Asic),
        WorkloadColumn::Fft1024,
        ParallelFraction::new(0.999)
            .map_err(|e| ProjectionError::Infeasible { reason: e.to_string() })?,
        0.95,
    )?;
    out.push(CrossoverRecord {
        description: "FFT-1024 f=0.999: FPGA reaches 95% of the ASIC at node year".into(),
        value: n1.and_then(|n| n.projection_year()).map(f64::from),
    });

    // 3. MMM: the ASIC pulls 3x away from the R5870 starting at f = ?
    let f2 = f_crossover(
        engine,
        DesignId::Het(DeviceId::Asic),
        DesignId::Het(DeviceId::R5870),
        WorkloadColumn::Mmm,
        TechNode::N11,
        3.0,
    )?;
    out.push(CrossoverRecord {
        description: "MMM @11nm: ASIC sustains 3x over the R5870 from f".into(),
        value: f2,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use ucore_devices::DeviceId;

    fn engine() -> ProjectionEngine {
        ProjectionEngine::new(Scenario::baseline()).unwrap()
    }

    #[test]
    fn het_vs_cmp_crossover_sits_near_f09() {
        // The paper's first conclusion, as a number: significant HET
        // gains need roughly f >= 0.9.
        let e = engine();
        let f = f_crossover(
            &e,
            DesignId::Het(DeviceId::Asic),
            DesignId::AsymCmp,
            WorkloadColumn::Fft1024,
            TechNode::N11,
            1.5,
        )
        .unwrap()
        .expect("crossover exists");
        assert!((0.6..0.97).contains(&f), "crossover at f = {f}");
    }

    #[test]
    fn fpga_catches_asic_by_32nm_on_fft() {
        let e = engine();
        let node = node_crossover(
            &e,
            DesignId::Het(DeviceId::V6Lx760),
            DesignId::Het(DeviceId::Asic),
            WorkloadColumn::Fft1024,
            ParallelFraction::new(0.999).unwrap(),
            0.95,
        )
        .unwrap()
        .expect("the FPGA catches up");
        assert!(
            node == TechNode::N32 || node == TechNode::N40,
            "caught up at {node}"
        );
    }

    #[test]
    fn mmm_asic_needs_extreme_f_to_triple_the_gpu() {
        // Conclusion 3: competitive at 90-99%, decisive only beyond.
        let e = engine();
        let f = f_crossover(
            &e,
            DesignId::Het(DeviceId::Asic),
            DesignId::Het(DeviceId::R5870),
            WorkloadColumn::Mmm,
            TechNode::N11,
            3.0,
        )
        .unwrap()
        .expect("crossover exists");
        assert!(f > 0.99, "crossover at f = {f}");
    }

    #[test]
    fn unreachable_ratio_returns_none() {
        // On FFT both designs share the bandwidth ceiling: a 10x gap
        // never opens.
        let e = engine();
        let f = f_crossover(
            &e,
            DesignId::Het(DeviceId::Asic),
            DesignId::Het(DeviceId::Gtx285),
            WorkloadColumn::Fft1024,
            TechNode::N11,
            10.0,
        )
        .unwrap();
        assert_eq!(f, None);
    }

    #[test]
    fn paper_crossovers_report_is_complete() {
        let records = paper_crossovers(&engine()).unwrap();
        assert_eq!(records.len(), 3);
        assert!(records[0].value.is_some());
        assert!(records[1].value.is_some());
        assert!(records[2].value.is_some());
    }
}
