//! BASE — single-sample baseline ([11]-style damped greedy) vs the
//! two-sample Algorithm Ant, across feedback worlds.
//!
//! What the data shows (and EXPERIMENTS.md records):
//!
//! * an *aggressive* single-sample rule churns Θ(p·n) regret in every
//!   world and the undamped limit (p → 1) is Appendix D.2's Θ(n)
//!   flip-flop;
//! * a *well-damped* rule (small p) can sit near the constant-memory
//!   floor `γ*Σd` under benign sigmoid noise — but it is exactly the
//!   kind of algorithm the adversarial model punishes: grey-zone lies
//!   drive its load back and forth across the whole zone, while
//!   Algorithm Ant's paired samples keep it parked;
//! * recovery from a demand step is measured against each algorithm's
//!   own steady band (1.5× steady + 30), so damping cannot hide slow
//!   reaction behind a loose absolute threshold.

use antalloc_bench::{banner, fmt, worker_threads, Table};
use antalloc_core::{AntParams, ExactGreedyParams};
use antalloc_env::{Event, Timeline};
use antalloc_noise::{GreyZonePolicy, NoiseModel};
use antalloc_sim::{ControllerSpec, FnObserver, NullObserver, SimConfig};

struct Outcome {
    steady_regret: f64,
    band: f64,
    recovery_rounds: Option<u64>,
}

fn run(spec: ControllerSpec, noise: NoiseModel) -> Outcome {
    let n = 2000usize;
    let step_round = 12_000u64;
    let cfg = SimConfig::builder(n, vec![200, 350, 150])
        .noise(noise)
        .controller(spec)
        .seed(0xBA5E)
        .timeline(Timeline::new().at(step_round, Event::SetDemands(vec![260, 455, 195])))
        .build()
        .expect("valid scenario");
    let mut engine = cfg.build();
    let mut sink = NullObserver;
    engine.run_parallel(8_000, worker_threads(), &mut sink);

    let mut steady_sum = 0u128;
    let mut steady_rounds = 0u64;
    let mut band = f64::INFINITY;
    let mut recovered_at: Option<u64> = None;
    let mut in_band_run = 0u64;
    let mut obs = FnObserver::new(|r: &antalloc_sim::RoundRecord<'_>| {
        if r.round < step_round {
            steady_sum += u128::from(r.instant_regret());
            steady_rounds += 1;
            if r.round == step_round - 1 {
                // Freeze this algorithm's own recovery band.
                band = 1.5 * steady_sum as f64 / steady_rounds as f64 + 30.0;
            }
        } else if recovered_at.is_none() {
            if (r.instant_regret() as f64) <= band {
                in_band_run += 1;
                if in_band_run == 50 {
                    recovered_at = Some(r.round - 49 - step_round);
                }
            } else {
                in_band_run = 0;
            }
        }
    });
    engine.run_parallel(4_000 + 36_000, worker_threads(), &mut obs);
    let _ = obs; // closure borrows end here
    Outcome {
        steady_regret: steady_sum as f64 / steady_rounds as f64,
        band,
        recovery_rounds: recovered_at,
    }
}

fn main() {
    banner(
        "BASE",
        "single-sample baseline vs Algorithm Ant across feedback worlds",
        "single samples churn Θ(p·n) or, damped, lose all worst-case \
         robustness; two-sample phases hold in every world",
    );
    let gamma = 1.0 / 16.0;
    println!(
        "n = 2000, Σd = 700 → 910 (+30%) at round 12000; recovery = \
         regret within 1.5× own steady + 30 for 50 straight rounds\n"
    );

    let mut table = Table::new(
        "baseline_noise_fragility",
        &[
            "algorithm",
            "feedback",
            "steady avg r",
            "recovery band",
            "recovery rounds",
        ],
    );
    let worlds: Vec<(String, NoiseModel)> = vec![
        ("exact".into(), NoiseModel::Exact),
        ("sigmoid λ=4".into(), NoiseModel::Sigmoid { lambda: 4.0 }),
        ("sigmoid λ=1".into(), NoiseModel::Sigmoid { lambda: 1.0 }),
        (
            "adversarial γ_ad=0.05 inverted".into(),
            NoiseModel::Adversarial {
                gamma_ad: 0.05,
                policy: GreyZonePolicy::Inverted,
            },
        ),
    ];
    for (world, noise) in &worlds {
        for (name, spec) in [
            (
                "baseline p=0.2",
                ControllerSpec::ExactGreedy(ExactGreedyParams {
                    p_join: 0.2,
                    p_leave: 0.2,
                }),
            ),
            (
                "baseline p=0.02",
                ControllerSpec::ExactGreedy(ExactGreedyParams {
                    p_join: 0.02,
                    p_leave: 0.02,
                }),
            ),
            (
                "algorithm ant γ=1/16",
                ControllerSpec::Ant(AntParams::new(gamma)),
            ),
        ] {
            let o = run(spec, noise.clone());
            table.row(vec![
                name.to_string(),
                world.clone(),
                fmt(o.steady_regret),
                fmt(o.band),
                o.recovery_rounds.map_or("never".into(), |r| r.to_string()),
            ]);
        }
    }
    table.finish();
    println!(
        "\nshape check: p = 0.2 churns ~Θ(p·n) everywhere; p = 0.02 \
         approaches the γ*Σd floor under benign sigmoid noise. In the \
         adversarial world at THIS small demand scale (c_sγ·d_min ≈ 23) \
         every algorithm degrades: Ant's pause-dip concentration fails \
         below c_sγ·d ≈ 100 and the inverted adversary triggers join \
         stampedes — see ABL1 part 3 for the demand-scale sweep showing \
         Ant recovering its Theorem 3.1 bound once Assumption 2.1's \
         scale is respected."
    );
}
