//! Golden tests pinning the paper-claim headline numbers.
//!
//! Each constant below is the value this repository currently produces
//! (not the paper's published number — see the range-based claim tests
//! for those). Pinning exact values turns any silent numerical drift —
//! a refactored formula, a changed evaluation order, a different
//! calibration draw — into a loud test failure. The sweep engine is
//! covered implicitly: figures are built through it, so these goldens
//! also certify that memoization does not perturb results.
//!
//! To regenerate after an *intentional* model change, run
//!
//! ```text
//! cargo test -p ucore-project --test paper_claims -- --ignored --nocapture
//! ```
//!
//! and paste the printed constants.

use ucore_core::{BoundSet, Budgets, ChipSpec, Limiter};
use ucore_devices::{DeviceId, TechNode};
use ucore_itrs::{Trend, TrendSeries};
use ucore_project::figures;

/// Relative tolerance for golden comparisons: tight enough to catch any
/// real drift, loose enough to ignore the last couple of ulps should a
/// future compiler reassociate a sum.
const REL_TOL: f64 = 1e-9;

fn assert_close(actual: f64, golden: f64, what: &str) {
    let rel = (actual - golden).abs() / golden.abs().max(f64::MIN_POSITIVE);
    assert!(
        rel <= REL_TOL,
        "{what}: got {actual:?}, golden {golden:?} (rel err {rel:.3e})"
    );
}

// --- Figure 6: FFT-1024 speedup projection (baseline scenario) -------

const F6_ASIC_F0999_N40: f64 = 44.886546798861154;
const F6_ASIC_F0999_N11: f64 = 62.70468949531292;
const F6_GTX480_F099_N11: f64 = 55.382181065128485;
const F6_ASYMCMP_F05_N11: f64 = 7.178085443413673;

#[test]
fn figure6_goldens() {
    let fig = figures::figure6().unwrap();
    assert_close(
        fig.value(0.999, "ASIC", TechNode::N40).unwrap(),
        F6_ASIC_F0999_N40,
        "figure 6, f=0.999, ASIC, 40 nm",
    );
    assert_close(
        fig.value(0.999, "ASIC", TechNode::N11).unwrap(),
        F6_ASIC_F0999_N11,
        "figure 6, f=0.999, ASIC, 11 nm",
    );
    assert_close(
        fig.value(0.99, "GTX480", TechNode::N11).unwrap(),
        F6_GTX480_F099_N11,
        "figure 6, f=0.99, GTX480, 11 nm",
    );
    assert_close(
        fig.value(0.5, "AsymCMP", TechNode::N11).unwrap(),
        F6_ASYMCMP_F05_N11,
        "figure 6, f=0.5, AsymCMP, 11 nm",
    );
}

// --- Figure 7: MMM speedup projection --------------------------------

const F7_ASIC_F0999_N11: f64 = 921.2500884793003;
const F7_SYMCMP_F0999_N11: f64 = 33.70535695183475;

#[test]
fn figure7_goldens() {
    let fig = figures::figure7().unwrap();
    assert_close(
        fig.value(0.999, "ASIC", TechNode::N11).unwrap(),
        F7_ASIC_F0999_N11,
        "figure 7, f=0.999, ASIC, 11 nm",
    );
    assert_close(
        fig.value(0.999, "SymCMP", TechNode::N11).unwrap(),
        F7_SYMCMP_F0999_N11,
        "figure 7, f=0.999, SymCMP, 11 nm",
    );
    // The paper's headline: the bandwidth-exempt MMM ASIC runs away
    // from the CMPs by well over an order of magnitude.
    let asic = fig.value(0.999, "ASIC", TechNode::N11).unwrap();
    let cmp = fig.value(0.999, "SymCMP", TechNode::N11).unwrap();
    assert!(asic / cmp > 25.0);
}

// --- Figure 8: Black-Scholes speedup projection ----------------------

const F8_ASIC_F09_N11: f64 = 35.61931976422729;

#[test]
fn figure8_goldens() {
    let fig = figures::figure8().unwrap();
    assert_close(
        fig.value(0.9, "ASIC", TechNode::N11).unwrap(),
        F8_ASIC_F09_N11,
        "figure 8, f=0.9, ASIC, 11 nm",
    );
}

// --- Figure 9: FFT under the 1 TB/s bandwidth scenario ---------------

const F9_ASIC_F0999_N11: f64 = 325.13994780052565;

#[test]
fn figure9_goldens() {
    let fig = figures::figure9().unwrap();
    assert_close(
        fig.value(0.999, "ASIC", TechNode::N11).unwrap(),
        F9_ASIC_F0999_N11,
        "figure 9, f=0.999, ASIC, 11 nm",
    );
    // Relieving the bandwidth wall must lift the FFT ASIC well past its
    // baseline ceiling.
    let terabyte = fig.value(0.999, "ASIC", TechNode::N11).unwrap();
    assert!(terabyte > 4.0 * F6_ASIC_F0999_N11);
}

// --- Figure 10: MMM normalized-energy projection ---------------------

const F10_ASIC_F09_N40: f64 = 0.2719944736592484;
const F10_SYMCMP_F09_N40: f64 = 1.0;

#[test]
fn figure10_goldens() {
    let fig = figures::figure10().unwrap();
    assert_close(
        fig.value(0.9, "ASIC", TechNode::N40).unwrap(),
        F10_ASIC_F09_N40,
        "figure 10, f=0.9, ASIC, 40 nm",
    );
    assert_close(
        fig.value(0.9, "SymCMP", TechNode::N40).unwrap(),
        F10_SYMCMP_F09_N40,
        "figure 10, f=0.9, SymCMP, 40 nm",
    );
}

// --- Figure 11: composite-workload portfolio projection --------------

const F11_ASIC_SPLIT_F0999_N11: f64 = 1093.5655645094646;
const F11_GTX285_SHARED_F099_N11: f64 = 106.17223687703978;
const F11_LX760_SPLIT_F09_N40: f64 = 6.502298292172333;

#[test]
fn figure11_goldens() {
    let fig = figures::figure11().unwrap();
    assert_close(
        fig.value(0.999, "ASIC", TechNode::N11).unwrap(),
        F11_ASIC_SPLIT_F0999_N11,
        "figure 11, f=0.999, ASIC split, 11 nm",
    );
    assert_close(
        fig.value(0.99, "GTX285", TechNode::N11).unwrap(),
        F11_GTX285_SHARED_F099_N11,
        "figure 11, f=0.99, GTX285 shared, 11 nm",
    );
    assert_close(
        fig.value(0.9, "LX760 split", TechNode::N40).unwrap(),
        F11_LX760_SPLIT_F09_N40,
        "figure 11, f=0.9, LX760 split, 40 nm",
    );
    // The split ASIC bank on the composite outruns even the MMM-only
    // ASIC: two thirds of its parallel time runs on far denser U-cores.
    let asic_split = fig.value(0.999, "ASIC", TechNode::N11).unwrap();
    assert!(asic_split > F7_ASIC_F0999_N11);
}

// --- Figure 5: ITRS 2009 scaling trends ------------------------------

#[test]
fn figure5_goldens() {
    let combined = TrendSeries::itrs_2009(Trend::CombinedPowerReduction);
    // Node-year anchors are Table 6's published factors, exactly.
    for (year, factor) in [(2011, 1.0), (2013, 0.75), (2016, 0.5), (2019, 0.36), (2022, 0.25)]
    {
        assert_eq!(combined.at(year), Some(factor), "combined power, {year}");
    }
    // Interpolated off-anchor year.
    assert_close(
        combined.at(2014).unwrap(),
        0.6666666666666666,
        "combined power, 2014",
    );
    let pins = TrendSeries::itrs_2009(Trend::PackagePins);
    assert_close(pins.at(2022).unwrap(), 1.25, "package pins, 2022");
}

// --- Table 1: the bound set for a representative design point --------

#[test]
fn table1_bound_goldens() {
    // AsymCMP at the 40 nm FFT budgets (A=19ish rounded to a stable
    // triple), r = 4: every Table 1 row evaluated once.
    let spec = ChipSpec::asymmetric_offload();
    let budgets = Budgets::new(19.0, 8.7, 45.0).unwrap();
    let bounds = BoundSet::compute(&spec, &budgets, 4.0).unwrap();
    assert_close(bounds.n_area(), 19.0, "table 1 area bound");
    assert_close(bounds.n_power(), 12.7, "table 1 power bound");
    assert_close(bounds.n_bandwidth(), 49.0, "table 1 bandwidth bound");
    assert_close(bounds.n_max(), 12.7, "table 1 usable n");
    assert_eq!(bounds.limiter(), Limiter::Power);
}

// --- Table 5: calibrated U-core parameters ---------------------------

#[test]
fn table5_ucore_goldens() {
    let table5 = ucore_calibrate::Table5::derive().unwrap();
    let asic_mmm = table5.ucore(DeviceId::Asic, ucore_calibrate::WorkloadColumn::Mmm).unwrap();
    let gtx480_fft = table5
        .ucore(DeviceId::Gtx480, ucore_calibrate::WorkloadColumn::Fft1024)
        .unwrap();
    assert_close(asic_mmm.mu(), TABLE5_ASIC_MMM_MU, "table 5 ASIC MMM mu");
    assert_close(asic_mmm.phi(), TABLE5_ASIC_MMM_PHI, "table 5 ASIC MMM phi");
    assert_close(gtx480_fft.mu(), TABLE5_GTX480_FFT_MU, "table 5 GTX480 FFT mu");
    assert_close(gtx480_fft.phi(), TABLE5_GTX480_FFT_PHI, "table 5 GTX480 FFT phi");
}

const TABLE5_ASIC_MMM_MU: f64 = 27.266037482553273;
const TABLE5_ASIC_MMM_PHI: f64 = 0.7945994585611713;
const TABLE5_GTX480_FFT_MU: f64 = 2.1999999999999997;
const TABLE5_GTX480_FFT_PHI: f64 = 0.47;

// --- Regeneration helper ---------------------------------------------

/// Prints every golden constant above from the current build. Run with
/// `-- --ignored --nocapture` and paste the output after intentional
/// model changes.
#[test]
#[ignore = "regeneration helper, not a check"]
fn dump_goldens() {
    let f6 = figures::figure6().unwrap();
    let f7 = figures::figure7().unwrap();
    let f8 = figures::figure8().unwrap();
    let f9 = figures::figure9().unwrap();
    let f10 = figures::figure10().unwrap();
    println!("F6_ASIC_F0999_N40: {:?}", f6.value(0.999, "ASIC", TechNode::N40).unwrap());
    println!("F6_ASIC_F0999_N11: {:?}", f6.value(0.999, "ASIC", TechNode::N11).unwrap());
    println!("F6_GTX480_F099_N11: {:?}", f6.value(0.99, "GTX480", TechNode::N11).unwrap());
    println!("F6_ASYMCMP_F05_N11: {:?}", f6.value(0.5, "AsymCMP", TechNode::N11).unwrap());
    println!("F7_ASIC_F0999_N11: {:?}", f7.value(0.999, "ASIC", TechNode::N11).unwrap());
    println!("F7_SYMCMP_F0999_N11: {:?}", f7.value(0.999, "SymCMP", TechNode::N11).unwrap());
    println!("F8_ASIC_F09_N11: {:?}", f8.value(0.9, "ASIC", TechNode::N11).unwrap());
    println!("F9_ASIC_F0999_N11: {:?}", f9.value(0.999, "ASIC", TechNode::N11).unwrap());
    println!("F10_ASIC_F09_N40: {:?}", f10.value(0.9, "ASIC", TechNode::N40).unwrap());
    println!("F10_SYMCMP_F09_N40: {:?}", f10.value(0.9, "SymCMP", TechNode::N40).unwrap());
    let f11 = figures::figure11().unwrap();
    println!("F11_ASIC_SPLIT_F0999_N11: {:?}", f11.value(0.999, "ASIC", TechNode::N11).unwrap());
    println!("F11_GTX285_SHARED_F099_N11: {:?}", f11.value(0.99, "GTX285", TechNode::N11).unwrap());
    println!(
        "F11_LX760_SPLIT_F09_N40: {:?}",
        f11.value(0.9, "LX760 split", TechNode::N40).unwrap()
    );
    let table5 = ucore_calibrate::Table5::derive().unwrap();
    let asic_mmm =
        table5.ucore(DeviceId::Asic, ucore_calibrate::WorkloadColumn::Mmm).unwrap();
    let gtx480_fft = table5
        .ucore(DeviceId::Gtx480, ucore_calibrate::WorkloadColumn::Fft1024)
        .unwrap();
    println!("TABLE5_ASIC_MMM_MU: {:?}", asic_mmm.mu());
    println!("TABLE5_ASIC_MMM_PHI: {:?}", asic_mmm.phi());
    println!("TABLE5_GTX480_FFT_MU: {:?}", gtx480_fft.mu());
    println!("TABLE5_GTX480_FFT_PHI: {:?}", gtx480_fft.phi());
    let spec = ChipSpec::asymmetric_offload();
    let budgets = Budgets::new(19.0, 8.7, 45.0).unwrap();
    let bounds = BoundSet::compute(&spec, &budgets, 4.0).unwrap();
    println!(
        "table1: n_area {:?} n_power {:?} n_bandwidth {:?} n_max {:?} limiter {:?}",
        bounds.n_area(),
        bounds.n_power(),
        bounds.n_bandwidth(),
        bounds.n_max(),
        bounds.limiter()
    );
    let combined = TrendSeries::itrs_2009(Trend::CombinedPowerReduction);
    println!("combined 2014: {:?}", combined.at(2014).unwrap());
}
