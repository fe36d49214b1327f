//! FIG1 — Figure 1: the feedback probability curve and the grey zone.
//!
//! Paper: "Whenever the overload is in the green (red) region, all ants
//! receive w.h.p. the feedback lack (overload). Whenever the overload is
//! in the grey region, the closer the overload is to 0, the more
//! unpredictable is the feedback."
//!
//! We sweep the deficit across `[−2γ*d, +2γ*d]`, draw 100k ant-samples
//! per point under the sigmoid model, and print the empirical P[overload
//! feedback] next to the analytic `1 − s(λΔ)`, marking the grey zone.
//! The adversarial model's hard envelope is shown alongside.

use antalloc_bench::{banner, fmt, Table};
use antalloc_noise::{
    critical_value_sigmoid, lack_probability, GreyZone, GreyZonePolicy, NoiseModel,
};
use antalloc_rng::AntRng;

fn main() {
    let n = 4000;
    let d = 300u64;
    let lambda = 0.5;
    // The paper's reliability exponent is 8; at simulation scale we plot
    // q = 2 as well to show the same shape at the horizon-relevant zone.
    let cv8 = critical_value_sigmoid(lambda, n, &[d], 8.0);
    let cv2 = critical_value_sigmoid(lambda, n, &[d], 2.0);
    banner(
        "FIG1",
        "feedback probability vs deficit (sigmoid + adversarial envelope)",
        "P[lack] = s(λΔ); outside ±γ*d all ants see the truth w.h.p.",
    );
    println!(
        "d = {d}, λ = {lambda}; γ*(q=8) = {:.4} (zone ±{:.1} ants), γ*(q=2) = {:.4} (±{:.1})",
        cv8.gamma_star,
        cv8.gamma_star * d as f64,
        cv2.gamma_star,
        cv2.gamma_star * d as f64
    );

    let zone8 = GreyZone::of(cv8.gamma_star, d);
    let zone2 = GreyZone::of(cv2.gamma_star, d);
    let sigmoid = NoiseModel::Sigmoid { lambda };
    let adversarial = NoiseModel::Adversarial {
        gamma_ad: cv2.gamma_star,
        policy: GreyZonePolicy::AlternateByRound,
    };
    let mut rng = AntRng::seed_from_u64(0xF161);

    let mut table = Table::new(
        "fig1_feedback_curve",
        &[
            "deficit",
            "analytic P[overload]",
            "empirical P[overload]",
            "abs err",
            "zone(q=8)",
            "zone(q=2)",
            "adversary forced?",
        ],
    );

    // Sweep ±1.2× the horizon-relevant (q=2) zone: the S-transition and
    // both zone edges are visible at this resolution; the q=8 zone
    // extends 4× further with error already below 1e-29 at its edge.
    let edge = (cv2.gamma_star * d as f64 * 1.2).ceil() as i64;
    let points = 25usize;
    for i in 0..points {
        let delta = -edge + (2 * edge) * i as i64 / (points as i64 - 1);
        let analytic = 1.0 - lack_probability(lambda, delta);
        let prep = sigmoid.prepare(1, &[delta], &[d]);
        let draws = 100_000u32;
        let overloads = (0..draws)
            .filter(|_| !prep.sample(0, &mut rng).is_lack())
            .count();
        let empirical = f64::from(overloads as u32) / f64::from(draws);
        // Is the adversary forced to tell the truth here?
        let adv = adversarial.marginal_lack_probability(delta, d);
        let forced = if adv == Some(1.0) {
            "lack"
        } else if adv == Some(0.0) {
            "overload"
        } else {
            "free"
        };
        table.row(vec![
            delta.to_string(),
            fmt(analytic),
            fmt(empirical),
            fmt((analytic - empirical).abs()),
            if zone8.contains(delta) {
                "grey"
            } else {
                "clear"
            }
            .to_string(),
            if zone2.contains(delta) {
                "grey"
            } else {
                "clear"
            }
            .to_string(),
            forced.to_string(),
        ]);
    }
    table.finish();

    println!("\nchecks:");
    println!("  s(0) = 1/2 at deficit 0 (maximal uncertainty)  [axiom §2.2]");
    println!(
        "  error at the q=8 zone edge: {:.2e} (target n^-8 = {:.2e})",
        cv8.edge_error_probability(lambda, d),
        (n as f64).powf(-8.0)
    );
}
