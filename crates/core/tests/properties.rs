//! Property-based tests over the model's core invariants.

use proptest::prelude::*;
use ucore_core::{
    amdahl, asymmetric, asymmetric_offload, dynamic, heterogeneous, symmetric,
    BoundSet, Budgets, ChipSpec, EnergyModel, Optimizer, ParallelFraction,
    PollackLaw, SerialPowerLaw, UCore,
};

fn fraction() -> impl Strategy<Value = ParallelFraction> {
    (0.0..=1.0f64).prop_map(|f| ParallelFraction::new(f).unwrap())
}

fn positive(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    lo..hi
}

proptest! {
    #[test]
    fn amdahl_never_exceeds_serial_bound(f in fraction(), s in positive(1.0, 1e6)) {
        let speedup = amdahl(f, s).unwrap().get();
        // Bounded above by both the acceleration and the serial Amdahl limit.
        prop_assert!(speedup <= s + 1e-9);
        if f.get() < 1.0 {
            prop_assert!(speedup <= 1.0 / f.serial() + 1e-9);
        }
        prop_assert!(speedup >= 1.0 - 1e-12);
    }

    #[test]
    fn amdahl_monotone_in_s(f in fraction(), s in positive(1.0, 1e5)) {
        let lo = amdahl(f, s).unwrap().get();
        let hi = amdahl(f, s * 2.0).unwrap().get();
        prop_assert!(hi + 1e-12 >= lo);
    }

    #[test]
    fn all_models_monotone_in_n(
        f in fraction(),
        r in positive(1.0, 8.0),
        n in positive(16.0, 1e4),
        mu in positive(0.1, 100.0),
        phi in positive(0.1, 10.0),
    ) {
        let law = PollackLaw::default();
        let u = UCore::new(mu, phi).unwrap();
        let bigger = n * 1.5;
        prop_assert!(
            symmetric(f, bigger, r, &law).unwrap().get() + 1e-9
                >= symmetric(f, n, r, &law).unwrap().get()
        );
        prop_assert!(
            asymmetric(f, bigger, r, &law).unwrap().get() + 1e-9
                >= asymmetric(f, n, r, &law).unwrap().get()
        );
        prop_assert!(
            asymmetric_offload(f, bigger, r, &law).unwrap().get() + 1e-9
                >= asymmetric_offload(f, n, r, &law).unwrap().get()
        );
        prop_assert!(
            dynamic(f, bigger, r, &law).unwrap().get() + 1e-9
                >= dynamic(f, n, r, &law).unwrap().get()
        );
        prop_assert!(
            heterogeneous(f, bigger, r, &u, &law).unwrap().get() + 1e-9
                >= heterogeneous(f, n, r, &u, &law).unwrap().get()
        );
    }

    #[test]
    fn heterogeneous_monotone_in_mu(
        f in fraction(),
        n in positive(4.0, 1000.0),
        mu in positive(0.1, 100.0),
        phi in positive(0.1, 10.0),
    ) {
        let law = PollackLaw::default();
        let slow = UCore::new(mu, phi).unwrap();
        let fast = UCore::new(mu * 2.0, phi).unwrap();
        let s_slow = heterogeneous(f, n, 1.0, &slow, &law).unwrap().get();
        let s_fast = heterogeneous(f, n, 1.0, &fast, &law).unwrap().get();
        prop_assert!(s_fast + 1e-9 >= s_slow);
    }

    #[test]
    fn dynamic_dominates_every_other_model(
        f in fraction(),
        r in positive(1.0, 8.0),
        n in positive(16.0, 1e4),
    ) {
        let law = PollackLaw::default();
        let d = dynamic(f, n, r, &law).unwrap().get();
        prop_assert!(d + 1e-9 >= symmetric(f, n, r, &law).unwrap().get());
        prop_assert!(d + 1e-9 >= asymmetric(f, n, r, &law).unwrap().get());
        prop_assert!(d + 1e-9 >= asymmetric_offload(f, n, r, &law).unwrap().get());
    }

    #[test]
    fn bound_set_n_max_is_min_of_bounds(
        r in positive(1.0, 8.0),
        a in positive(10.0, 1000.0),
        p in positive(10.0, 1000.0),
        b in positive(10.0, 1000.0),
        mu in positive(0.5, 50.0),
        phi in positive(0.1, 5.0),
    ) {
        let budgets = Budgets::new(a, p, b).unwrap();
        let spec = ChipSpec::heterogeneous(UCore::new(mu, phi).unwrap());
        if let Ok(bounds) = BoundSet::compute(&spec, &budgets, r) {
            let n_max = bounds.n_max();
            prop_assert!(n_max <= bounds.n_area() + 1e-9);
            prop_assert!(n_max <= bounds.n_power() + 1e-9);
            prop_assert!(n_max <= bounds.n_bandwidth() + 1e-9);
            // The design the optimizer would build is within budget.
            let eval = spec.evaluate(
                ParallelFraction::new(0.9).unwrap(),
                n_max.max(r),
                r,
                &budgets,
            );
            if n_max > r {
                let eval = eval.unwrap();
                prop_assert!(eval.parallel_power <= p + 1e-6);
                prop_assert!(eval.parallel_bandwidth <= b + 1e-6);
                prop_assert!(eval.n <= a + 1e-6);
            }
        }
    }

    #[test]
    fn optimizer_result_is_feasible_and_best_of_sweep(
        a in positive(8.0, 400.0),
        p in positive(4.0, 100.0),
        b in positive(8.0, 1000.0),
        mu in positive(0.5, 50.0),
        phi in positive(0.1, 5.0),
        f in fraction(),
    ) {
        let budgets = Budgets::new(a, p, b).unwrap();
        let spec = ChipSpec::heterogeneous(UCore::new(mu, phi).unwrap());
        let opt = Optimizer::paper_default();
        if let Ok(best) = opt.optimize(&spec, &budgets, f) {
            for r in 1..=16 {
                let Ok(bounds) = BoundSet::compute(&spec, &budgets, r as f64) else {
                    continue;
                };
                let n = bounds.n_max().max(r as f64);
                let Ok(s) = spec.speedup(f, n, r as f64) else { continue };
                prop_assert!(best.evaluation.speedup.get() + 1e-9 >= s.get());
            }
        }
    }

    #[test]
    fn energy_scales_linearly_with_node(
        f in fraction(),
        scale in positive(0.1, 1.0),
        n in positive(4.0, 100.0),
    ) {
        let spec = ChipSpec::asymmetric_offload();
        let base = EnergyModel::at_reference_node()
            .breakdown(&spec, f, n, 1.0)
            .unwrap()
            .total();
        let scaled = EnergyModel::new(scale)
            .unwrap()
            .breakdown(&spec, f, n, 1.0)
            .unwrap()
            .total();
        prop_assert!((scaled - scale * base).abs() < 1e-9 * base.max(1.0));
    }

    #[test]
    fn speedup_times_time_is_unity(
        f in fraction(),
        n in positive(4.0, 100.0),
        mu in positive(0.5, 50.0),
    ) {
        let spec = ChipSpec::heterogeneous(UCore::new(mu, 1.0).unwrap());
        let s = spec.speedup(f, n, 1.0).unwrap();
        prop_assert!((s.get() * s.time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_chip_never_beats_best_single_fabric_at_full_area(
        mu1 in positive(1.0, 50.0),
        mu2 in positive(1.0, 50.0),
        w in 0.05..0.95f64,
    ) {
        // Splitting area between two fabrics cannot beat giving the whole
        // area to a hypothetical fabric as fast as the faster of the two.
        use ucore_core::{MixedChip, UCorePartition};
        let f = ParallelFraction::new(0.99).unwrap();
        let chip = MixedChip::new(
            20.0,
            1.0,
            vec![
                UCorePartition {
                    ucore: UCore::new(mu1, 1.0).unwrap(),
                    area_share: 0.5,
                    work_share: w,
                },
                UCorePartition {
                    ucore: UCore::new(mu2, 1.0).unwrap(),
                    area_share: 0.5,
                    work_share: 1.0 - w,
                },
            ],
        )
        .unwrap();
        let best_mu = mu1.max(mu2);
        let ideal = heterogeneous(
            f,
            20.0,
            1.0,
            &UCore::new(best_mu, 1.0).unwrap(),
            &PollackLaw::default(),
        )
        .unwrap();
        prop_assert!(chip.speedup(f).unwrap().get() <= ideal.get() + 1e-9);
    }
}

/// The sensitivity orderings behind the `ablation/*` benches (DESIGN.md
/// §7), at the bench's design point: the ASIC FFT u-core (µ = 489,
/// φ = 4.96) at 22 nm budgets (75, 17.5, 59).
#[test]
fn ablation_orderings_hold() {
    let budgets = Budgets::new(75.0, 17.5, 59.0).unwrap();
    let spec = |alpha: f64, pollack: f64| {
        ChipSpec::heterogeneous(UCore::new(489.0, 4.96).unwrap())
            .with_power_law(SerialPowerLaw::new(alpha).unwrap())
            .with_law(PollackLaw::new(pollack).unwrap())
    };
    let speedup = |opt: &Optimizer, spec: &ChipSpec, f: f64| {
        opt.optimize(spec, &budgets, ParallelFraction::new(f).unwrap())
            .unwrap()
            .evaluation
            .speedup
            .get()
    };
    let paper = Optimizer::paper_default();
    let base = spec(1.75, 0.5);

    // A hungrier serial core never helps.
    let (mild, harsh) = (speedup(&paper, &base, 0.9), speedup(&paper, &spec(2.25, 0.5), 0.9));
    assert!(harsh <= mild, "alpha 2.25 -> {harsh} vs alpha 1.75 -> {mild}");

    // Widening the r sweep (cap 16 -> 64) or refining its grid (step
    // 1 -> 0.125) only adds candidates.
    let capped = speedup(&paper, &base, 0.5);
    let uncapped = speedup(&Optimizer::new(1.0, 64.0, 1.0).unwrap(), &base, 0.5);
    assert!(uncapped >= capped, "r cap 64 -> {uncapped} vs cap 16 -> {capped}");
    let coarse = speedup(&Optimizer::new(1.0, 16.0, 1.0).unwrap(), &base, 0.9);
    let fine = speedup(&Optimizer::new(1.0, 16.0, 0.125).unwrap(), &base, 0.9);
    assert!(fine >= coarse, "r step 0.125 -> {fine} vs step 1 -> {coarse}");

    // A steeper Pollack law makes every sequential core faster.
    let pollack: Vec<f64> =
        [0.4, 0.5, 0.6].iter().map(|&e| speedup(&paper, &spec(1.75, e), 0.9)).collect();
    assert!(pollack.windows(2).all(|w| w[1] >= w[0]), "pollack 0.4/0.5/0.6 -> {pollack:?}");

    // Sublinear traffic scaling eases the bandwidth wall.
    let bandwidth: Vec<f64> = [1.0, 0.75, 0.5]
        .iter()
        .map(|&e| speedup(&paper, &base.with_bandwidth_exponent(e), 0.99))
        .collect();
    assert!(
        bandwidth.windows(2).all(|w| w[1] >= w[0]),
        "bandwidth exponent 1.0/0.75/0.5 -> {bandwidth:?}"
    );
}
