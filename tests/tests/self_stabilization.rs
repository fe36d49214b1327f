//! Self-stabilization under perturbations and changing demands.

use antalloc_core::AntParams;
use antalloc_env::{Event, Perturbation, Timeline};
use antalloc_noise::NoiseModel;
use antalloc_sim::{ControllerSpec, NullObserver, RunSummary, SimConfig};

fn config(seed: u64) -> SimConfig {
    SimConfig::builder(2000, vec![300, 400])
        .noise(NoiseModel::Sigmoid { lambda: 3.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(seed)
        .build()
        .expect("valid scenario")
}

fn steady_regret(engine: &mut antalloc_sim::SyncEngine, settle: u64, measure: u64) -> f64 {
    let mut warm = NullObserver;
    engine.run(settle, &mut warm);
    let mut steady = RunSummary::new();
    engine.run(measure, &mut steady);
    steady.average_regret()
}

#[test]
fn recovers_from_mass_death() {
    let mut engine = config(1).build();
    let before = steady_regret(&mut engine, 4000, 1000);
    engine.perturb(&Perturbation::KillRandom { count: 800 });
    let after = steady_regret(&mut engine, 4000, 1000);
    // Post-recovery regret within 3× of the undisturbed steady state
    // (same bound scale; the colony lost 40% of its ants but demands
    // still fit in the survivors).
    assert!(
        after < 3.0 * before + 100.0,
        "before {before}, after {after}"
    );
}

#[test]
fn recovers_from_scramble_and_stampede() {
    let mut engine = config(2).build();
    let baseline = steady_regret(&mut engine, 4000, 1000);
    engine.perturb(&Perturbation::Scramble);
    let after_scramble = steady_regret(&mut engine, 4000, 1000);
    assert!(after_scramble < 3.0 * baseline + 100.0);
    engine.perturb(&Perturbation::StampedeTo(1));
    let after_stampede = steady_regret(&mut engine, 6000, 1000);
    assert!(after_stampede < 3.0 * baseline + 100.0);
}

#[test]
fn spawned_ants_integrate() {
    let mut engine = config(3).build();
    steady_regret(&mut engine, 4000, 100);
    engine.perturb(&Perturbation::Spawn { count: 1000 });
    assert_eq!(engine.colony().num_ants(), 3000);
    // New idle ants must not stampede into saturated tasks: regret stays
    // bounded by the theorem band.
    let after = steady_regret(&mut engine, 3000, 1000);
    assert!(after < 5.0 / 16.0 * 700.0 + 3.0, "after {after}");
}

#[test]
fn tracks_step_demand_changes() {
    let mut cfg = config(4);
    cfg.timeline = Timeline::new().at(5000, Event::SetDemands(vec![400, 300]));
    let mut engine = cfg.build();
    let before = steady_regret(&mut engine, 4000, 900); // rounds 1..4900
    let after = steady_regret(&mut engine, 4000, 1000); // past the step
    assert!(before < 5.0 / 16.0 * 700.0 + 3.0);
    assert!(after < 5.0 / 16.0 * 700.0 + 3.0, "after {after}");
    // Loads actually moved toward the new demands.
    let w0 = engine.colony().load(0) as f64;
    let w1 = engine.colony().load(1) as f64;
    assert!(w0 > w1, "w0 {w0} should exceed w1 {w1} after the flip");
}

#[test]
fn survives_alternating_demands() {
    let mut cfg = config(5);
    // Demands flip between the two vectors every 3000 rounds.
    cfg.timeline = Timeline::new().every(
        3000,
        3000,
        vec![
            Event::SetDemands(vec![400, 300]),
            Event::SetDemands(vec![300, 400]),
        ],
    );
    let mut engine = cfg.build();
    let mut warm = NullObserver;
    engine.run(3500, &mut warm);
    let mut all = RunSummary::new();
    engine.run(9000, &mut all);
    // Each flip moves 100 ants' worth of demand; the time-averaged regret
    // includes the transient after each flip but must stay far below the
    // Θ(Σd) level of a non-adapting allocation.
    assert!(all.average_regret() < 350.0, "avg {}", all.average_regret());
}
