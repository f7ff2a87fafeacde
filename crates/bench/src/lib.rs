//! # ucore-bench — the reproduction harness
//!
//! One rendering function per table and figure of the paper, consumed by
//! the `repro` binary (`cargo run -p ucore-bench --bin repro -- --all`),
//! the one bench registry in [`snapshot`] (real kernels, sweeps,
//! optimizer, allocator and journal), and [`cli`], the flag tables,
//! parser and durability front end that `repro` and `served` share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom: model code returns typed errors; `unwrap`/`expect`
// stay legal in `#[cfg(test)]` code only (ucore-lint enforces the same
// contract at the token level).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod cli;
pub mod experiments;
pub mod figures;
pub mod render;
pub mod scenarios;
pub mod snapshot;
pub mod tables;

pub use render::{Rendered, RenderError, Target};

/// Renders every table and figure in order, as the `--all` flag does.
///
/// # Errors
///
/// Propagates any projection/calibration error as a boxed error (none
/// occur with the shipped calibration data).
pub fn render_all() -> Result<String, Box<dyn std::error::Error>> {
    let mut out = String::new();
    out.push_str(&tables::table1()?);
    out.push('\n');
    for render in [
        tables::table2,
        tables::table3,
        tables::table4,
        tables::table6,
    ] {
        out.push_str(&render());
        out.push('\n');
    }
    out.push_str(&tables::table5()?);
    out.push('\n');
    for render in [
        figures::figure2 as fn() -> String,
        figures::figure3,
        figures::figure4,
        figures::figure5,
    ] {
        out.push_str(&render());
        out.push('\n');
    }
    out.push_str(&figures::figure6()?);
    out.push_str(&figures::figure7()?);
    out.push_str(&figures::figure8()?);
    out.push_str(&figures::figure9()?);
    out.push_str(&figures::figure10()?);
    out.push_str(&figures::figure11()?);
    for n in 1..=6 {
        out.push_str(&scenarios::scenario(n)?);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn render_all_mentions_every_artifact() {
        let all = super::render_all().unwrap();
        for needle in [
            "Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
            "Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
            "Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 11",
            "Scenario 1", "Scenario 6",
        ] {
            assert!(all.contains(needle), "missing {needle}");
        }
    }
}
