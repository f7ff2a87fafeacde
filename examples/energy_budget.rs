//! Energy as the first-class objective — the paper's third question:
//! "would our conclusions change if lowering total energy is the primary
//! objective instead of maximizing performance?"
//!
//! This example optimizes the same chips for maximum speedup, minimum
//! energy, and minimum energy-delay product.
//!
//! Run with `cargo run --example energy_budget`.

use ucore::calibrate::{Table5, WorkloadColumn};
use ucore::model::{Budgets, ChipSpec, Objective, Optimizer, ParallelFraction};
use ucore::report::{Align, Table};
use ucore_devices::DeviceId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let table5 = Table5::derive()?;
    let f = ParallelFraction::new(0.9)?;
    // 22 nm-class budgets for the MMM workload.
    let budgets = Budgets::new(75.0, 35.0, 1500.0)?;

    let chips: Vec<(String, ChipSpec)> = vec![
        ("AsymCMP".into(), ChipSpec::asymmetric_offload()),
        (
            "HET R5870".into(),
            ChipSpec::heterogeneous(
                table5
                    .ucore(DeviceId::R5870, WorkloadColumn::Mmm)
                    .expect("published cell"),
            ),
        ),
        (
            "HET ASIC".into(),
            ChipSpec::heterogeneous(
                table5
                    .ucore(DeviceId::Asic, WorkloadColumn::Mmm)
                    .expect("published cell"),
            ),
        ),
    ];

    println!("MMM, f = 0.9, 22 nm-class budgets — three objectives:\n");
    let mut table = Table::new(vec![
        "chip".into(),
        "objective".into(),
        "speedup".into(),
        "energy".into(),
        "EDP".into(),
        "r".into(),
    ]);
    for col in 2..=5 {
        table.align(col, Align::Right);
    }
    for (name, spec) in &chips {
        for (label, objective) in [
            ("max speedup", Objective::MaxSpeedup),
            ("min energy", Objective::MinEnergy),
            ("min EDP", Objective::MinEnergyDelay),
        ] {
            let best = Optimizer::paper_default()
                .with_objective(objective)
                .optimize(spec, &budgets, f)?;
            let edp = best.energy / best.evaluation.speedup.get();
            table.row(vec![
                name.clone(),
                label.into(),
                format!("{:.1}", best.evaluation.speedup.get()),
                format!("{:.3}", best.energy),
                format!("{:.4}", edp),
                format!("{:.0}", best.evaluation.r),
            ]);
        }
    }
    println!("{table}");
    Ok(())
}
