//! Table renderers.

use ucore_calibrate::{Table5, WorkloadColumn};
use ucore_core::{BoundSet, Budgets, ChipSpec, UCore};
use ucore_devices::{Catalog, DeviceId};
use ucore_itrs::Roadmap;
use ucore_report::{Align, Table};
use ucore_simdev::SimLab;
use ucore_workloads::WorkloadKind;

fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Table 1: the bounds on `n` and `r`, shown symbolically and evaluated
/// at a worked example (`A = 100`, `P = 10`, `B = 20`, `r = 4`,
/// `µ = 5`, `φ = 0.5`).
///
/// # Errors
///
/// Propagates model errors from the worked example (none occur with
/// these constants).
pub fn table1() -> Result<String, Box<dyn std::error::Error>> {
    let mut t = Table::new(vec![
        "bound".into(),
        "Symmetric".into(),
        "Asym-offload".into(),
        "Heterogeneous".into(),
    ]);
    t.row(vec![
        "area".into(),
        "n <= A".into(),
        "n <= A".into(),
        "n <= A".into(),
    ]);
    t.row(vec![
        "parallel power".into(),
        "n <= P*r^(1-a/2)".into(),
        "n <= P + r".into(),
        "n <= P/phi + r".into(),
    ]);
    t.row(vec![
        "serial power".into(),
        "r^(a/2) <= P".into(),
        "r^(a/2) <= P".into(),
        "r^(a/2) <= P".into(),
    ]);
    t.row(vec![
        "parallel bandwidth".into(),
        "n <= B*sqrt(r)".into(),
        "n <= B + r".into(),
        "n <= B/mu + r".into(),
    ]);
    t.row(vec![
        "serial bandwidth".into(),
        "r <= B^2".into(),
        "r <= B^2".into(),
        "r <= B^2".into(),
    ]);

    // The numeric cross-check.
    let budgets = Budgets::new(100.0, 10.0, 20.0)?;
    let u = UCore::new(5.0, 0.5)?;
    let specs = [
        ("Symmetric", ChipSpec::symmetric()),
        ("Asym-offload", ChipSpec::asymmetric_offload()),
        ("Heterogeneous", ChipSpec::heterogeneous(u)),
    ];
    let mut numeric = Table::new(vec![
        "model".into(),
        "n_area".into(),
        "n_power".into(),
        "n_bandwidth".into(),
        "n_max".into(),
        "limiter".into(),
    ]);
    for col in 1..=4 {
        numeric.align(col, Align::Right);
    }
    for (name, spec) in specs {
        let b = BoundSet::compute(&spec, &budgets, 4.0)?;
        numeric.row(vec![
            name.into(),
            fmt(b.n_area(), 1),
            fmt(b.n_power(), 2),
            fmt(b.n_bandwidth(), 2),
            fmt(b.n_max(), 2),
            b.limiter().to_string(),
        ]);
    }
    Ok(format!(
        "Table 1: bounds on area, power, and bandwidth\n{t}\n\
         Worked example (A=100, P=10, B=20, r=4, mu=5, phi=0.5):\n{numeric}"
    ))
}

/// Table 2: the device summary.
pub fn table2() -> String {
    let catalog = Catalog::paper();
    let mut t = Table::new(vec![
        "attribute".into(),
        "Core i7-960".into(),
        "GTX285".into(),
        "GTX480".into(),
        "R5870".into(),
        "V6-LX760".into(),
        "ASIC".into(),
    ]);
    let dev = |id| catalog.device(id).clone();
    let devices: Vec<_> = DeviceId::ALL.iter().map(|&id| dev(id)).collect();
    let opt = |v: Option<f64>, digits: usize| {
        v.map(|x| fmt(x, digits)).unwrap_or_else(|| "-".into())
    };
    let mut push = |label: &str, cells: Vec<String>| {
        let mut row = vec![label.to_string()];
        row.extend(cells);
        t.row(row);
    };
    push("year", devices.iter().map(|d| d.year().to_string()).collect());
    push(
        "node",
        devices
            .iter()
            .map(|d| format!("{}/{}", d.foundry(), d.node()))
            .collect(),
    );
    push(
        "die area (mm2)",
        devices.iter().map(|d| opt(d.die_area_mm2(), 0)).collect(),
    );
    push(
        "core area (mm2)",
        devices.iter().map(|d| opt(d.core_area_mm2(), 1)).collect(),
    );
    push(
        "clock (GHz)",
        devices.iter().map(|d| opt(d.clock_ghz(), 3)).collect(),
    );
    push(
        "voltage (V)",
        devices
            .iter()
            .map(|d| {
                let (lo, hi) = d.voltage_range_v();
                if (lo - hi).abs() < 1e-9 {
                    format!("{lo}")
                } else {
                    format!("{lo}-{hi}")
                }
            })
            .collect(),
    );
    push(
        "memory",
        devices
            .iter()
            .map(|d| d.memory().unwrap_or("-").to_string())
            .collect(),
    );
    push(
        "bandwidth (GB/s)",
        devices.iter().map(|d| opt(d.bandwidth_gb_s(), 1)).collect(),
    );
    format!("Table 2: summary of devices\n{t}")
}

/// Table 3: the workload summary.
pub fn table3() -> String {
    let mut t = Table::new(vec![
        "workload".into(),
        "paper implementations".into(),
        "this reproduction".into(),
        "unit".into(),
        "arithmetic intensity".into(),
    ]);
    t.row(vec![
        "MMM".into(),
        "MKL / CUBLAS / CAL++ / Bluespec".into(),
        "naive + blocked + threaded Rust kernels".into(),
        "GFLOP/s".into(),
        "N/4 flops/byte (blocked)".into(),
    ]);
    t.row(vec![
        "FFT".into(),
        "Spiral / CUFFT / Spiral-RTL".into(),
        "radix-2 / radix-4 planned FFT".into(),
        "pseudo-GFLOP/s (5N log2 N)".into(),
        "0.3125 log2 N flops/byte".into(),
    ]);
    t.row(vec![
        "Black-Scholes".into(),
        "PARSEC+SSE / CUDA ref / generated RTL".into(),
        "A&S-CND closed-form batch pricer".into(),
        "Mopts/s".into(),
        "10 bytes/option".into(),
    ]);
    format!("Table 3: summary of workloads\n{t}")
}

/// Table 4: measured MMM and Black-Scholes results.
pub fn table4() -> String {
    let lab = SimLab::paper();
    let mut out = String::from("Table 4: summary of results for MMM and BS\n");
    for (kind, unit, per_mm2, per_j) in [
        (WorkloadKind::Mmm, "GFLOP/s", "(GFLOP/s)/mm2", "GFLOP/J"),
        (WorkloadKind::BlackScholes, "Mopts/s", "(Mopts/s)/mm2", "Mopts/J"),
    ] {
        let mut t = Table::new(vec![
            "device".into(),
            unit.into(),
            per_mm2.into(),
            per_j.into(),
        ]);
        for col in 1..=3 {
            t.align(col, Align::Right);
        }
        for m in lab.table4(kind) {
            t.row(vec![
                m.device.label().into(),
                fmt(m.perf, 0),
                fmt(m.perf_per_mm2, 2),
                fmt(m.perf_per_joule, 2),
            ]);
        }
        out.push_str(&format!("{kind:?}:\n{t}\n"));
    }
    out
}

/// Table 5: the derived U-core parameters.
///
/// # Errors
///
/// Propagates calibration failures (none with the shipped data).
pub fn table5() -> Result<String, Box<dyn std::error::Error>> {
    let table = Table5::derive()?;
    let mut t = Table::new(vec![
        "device".into(),
        "param".into(),
        "MMM".into(),
        "BS".into(),
        "FFT-64".into(),
        "FFT-1024".into(),
        "FFT-16384".into(),
    ]);
    for col in 2..=6 {
        t.align(col, Align::Right);
    }
    for device in [
        DeviceId::Gtx285,
        DeviceId::Gtx480,
        DeviceId::R5870,
        DeviceId::V6Lx760,
        DeviceId::Asic,
    ] {
        for (param, pick) in [
            ("phi", true),
            ("mu", false),
        ] {
            let mut row = vec![device.label().to_string(), param.into()];
            for column in WorkloadColumn::ALL {
                let cell = table
                    .ucore(device, column)
                    .map(|u| {
                        let v = if pick { u.phi() } else { u.mu() };
                        fmt(v, 2)
                    })
                    .unwrap_or_else(|| "-".into());
                row.push(cell);
            }
            t.row(row);
        }
    }
    Ok(format!(
        "Table 5: U-core parameters (phi = relative BCE power, mu = relative BCE performance)\n{t}"
    ))
}

/// Table 6: the technology-scaling parameters.
pub fn table6() -> String {
    let roadmap = Roadmap::itrs_2009();
    let mut t = Table::new(vec![
        "parameter".into(),
        "2011".into(),
        "2013".into(),
        "2016".into(),
        "2019".into(),
        "2022".into(),
    ]);
    for col in 1..=5 {
        t.align(col, Align::Right);
    }
    let nodes = roadmap.nodes();
    let mut push = |label: &str, values: Vec<String>| {
        let mut row = vec![label.to_string()];
        row.extend(values);
        t.row(row);
    };
    push("technology node", nodes.iter().map(|n| n.node.to_string()).collect());
    push(
        "core die budget (mm2)",
        nodes.iter().map(|n| fmt(n.core_die_budget_mm2, 0)).collect(),
    );
    push(
        "core power budget (W)",
        nodes.iter().map(|n| fmt(n.core_power_budget_w, 0)).collect(),
    );
    push(
        "bandwidth (GB/s)",
        nodes.iter().map(|n| fmt(n.bandwidth_gb_s, 0)).collect(),
    );
    push(
        "max area (BCE units)",
        nodes.iter().map(|n| fmt(n.max_area_bce, 0)).collect(),
    );
    push(
        "rel. power per transistor",
        nodes
            .iter()
            .map(|n| format!("{}X", fmt(n.rel_power_per_transistor, 2)))
            .collect(),
    );
    push(
        "rel. bandwidth",
        nodes.iter().map(|n| format!("{}X", fmt(n.rel_bandwidth, 1))).collect(),
    );
    format!("Table 6: parameters assumed in technology scaling\n{t}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_bounds_and_example() {
        let t = table1().unwrap();
        assert!(t.contains("n <= P/phi + r"));
        assert!(t.contains("limiter"));
        assert!(t.contains("bandwidth")); // the het example is bw-limited
    }

    #[test]
    fn table2_contains_key_cells() {
        let t = table2();
        assert!(t.contains("263"));
        assert!(t.contains("GTX480"));
        assert!(t.contains("UMC/Samsung"));
        assert!(t.contains("177.4"));
    }

    #[test]
    fn table3_lists_all_kernels() {
        let t = table3();
        assert!(t.contains("MMM"));
        assert!(t.contains("FFT"));
        assert!(t.contains("Black-Scholes"));
        assert!(t.contains("0.3125 log2 N"));
    }

    #[test]
    fn table4_prints_published_numbers() {
        let t = table4();
        assert!(t.contains("1491"));
        assert!(t.contains("19.28"));
        assert!(t.contains("25532"));
        assert!(t.contains("642.5") || t.contains("642.50"));
    }

    #[test]
    fn table5_prints_mu_phi_grid() {
        let t = table5().unwrap();
        // Derived values land within rounding of the published 27.4/482.
        assert!(t.contains("27.2") || t.contains("27.3") || t.contains("27.4"));
        assert!(t.contains("482"));
        assert!(t.contains("733.00")); // an exact anchor inversion
        assert!(t.contains("-")); // missing cells stay dashes
    }

    #[test]
    fn table6_matches_roadmap() {
        let t = table6();
        assert!(t.contains("432"));
        assert!(t.contains("298"));
        assert!(t.contains("0.25X"));
    }
}
