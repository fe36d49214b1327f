//! Cross-crate smoke and contract tests: every shipped controller runs
//! under every noise model, respects the environment's information
//! hiding, and reaches both of its output states (Assumption 2.2 in
//! behavioural form).

use antalloc_core::{AntParams, PreciseSigmoidParams};
use antalloc_noise::NoiseModel;
use antalloc_sim::{BasicObserver, ControllerSpec, FnObserver, NullObserver, SimConfig};
use antalloc_tests::scenarios;

#[test]
fn every_controller_runs_under_every_noise_model() {
    for spec in scenarios::kinds()
        .iter()
        .filter(|s| !scenarios::single_task(s))
    {
        for noise in scenarios::noises() {
            let cfg = SimConfig::builder(400, vec![60, 80])
                .noise(noise.clone())
                .controller(spec.clone())
                .seed(12)
                .build()
                .expect("valid scenario");
            let mut engine = cfg.build();
            let mut obs = NullObserver;
            engine.run(700, &mut obs);
            assert!(
                engine.colony().recount_consistent(),
                "{spec:?} under {noise:?}"
            );
        }
    }
}

#[test]
fn every_controller_visits_both_working_and_idle_states() {
    // Behavioural Assumption 2.2: over a long noisy run, the population
    // must exercise joins and leaves (no absorbing states).
    for spec in scenarios::kinds()
        .iter()
        .filter(|s| !scenarios::single_task(s))
    {
        let cfg = SimConfig::builder(300, vec![50, 50])
            .noise(NoiseModel::Sigmoid { lambda: 0.5 })
            .controller(spec.clone())
            .seed(13)
            .build()
            .expect("valid scenario");
        let mut engine = cfg.build();
        let mut saw_workers = false;
        let mut saw_idle = false;
        let mut obs = FnObserver::new(|r: &antalloc_sim::RoundRecord<'_>| {
            saw_workers |= r.loads.iter().any(|&w| w > 0);
            saw_idle |= r.idle > 0;
        });
        engine.run(2500, &mut obs);
        let _ = obs; // closure borrows end here
        assert!(saw_workers, "{spec:?} never put anyone to work");
        assert!(saw_idle, "{spec:?} never had an idle ant");
    }
}

#[test]
fn hysteresis_spec_runs_single_task_colonies() {
    for depth in [1u16, 3, 8] {
        let cfg = SimConfig::builder(500, vec![125])
            .noise(NoiseModel::Sigmoid { lambda: 1.0 })
            .controller(ControllerSpec::Hysteresis {
                depth,
                lazy: Some(0.25),
            })
            .seed(14)
            .build()
            .expect("valid scenario");
        let mut engine = cfg.build();
        let mut obs = BasicObserver::new(0.05, 2.5, 500);
        engine.run(3000, &mut obs);
        assert!(engine.colony().recount_consistent());
        // The machine allocates *some* workers.
        assert!(engine.colony().load(0) > 0);
    }
}

#[test]
fn metrics_pipeline_integrates_with_engine() {
    let cfg = SimConfig::builder(1000, vec![150, 200])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(15)
        .build()
        .expect("valid scenario");
    let mut engine = cfg.build();
    let mut obs = BasicObserver::new(1.0 / 16.0, 2.5, 2000);
    engine.run(5000, &mut obs);
    let b = obs.regret.breakdown();
    assert_eq!(b.rounds, 3000);
    assert_eq!(b.total, b.plus + b.minus + b.near);
    // Steady state: significant lack should be gone.
    assert_eq!(b.minus, 0, "steady-state lack component {}", b.minus);
    assert!(obs.instant.mean() > 0.0);
    assert!(obs.switches.per_ant_round(1000) < 0.2);
}

#[test]
fn memory_accounting_is_ordered_sensibly() {
    // Trivial < Ant < PreciseSigmoid, and PreciseSigmoid grows with 1/ε.
    let k = 4;
    let trivial = ControllerSpec::Trivial.build(k);
    let ant = ControllerSpec::Ant(AntParams::default()).build(k);
    let ps_coarse = ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)).build(k);
    let ps_fine = ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.05)).build(k);
    use antalloc_core::Controller as _;
    assert!(trivial.memory_bits() < ant.memory_bits());
    assert!(ant.memory_bits() < ps_coarse.memory_bits());
    assert!(ps_coarse.memory_bits() < ps_fine.memory_bits());
}
