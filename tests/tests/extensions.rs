//! Integration tests for the §6 / §2.3 extension features:
//! desynchronized phases, weighted regret, and their interaction with
//! the standard machinery (checkpoints, perturbations).

use antalloc_core::AntParams;
use antalloc_env::Perturbation;
use antalloc_metrics::WeightedRegret;
use antalloc_noise::NoiseModel;
use antalloc_sim::{Checkpoint, ControllerSpec, FnObserver, NullObserver, RunSummary, SimConfig};

fn desync_config(seed: u64, gamma: f64) -> SimConfig {
    SimConfig::builder(2000, vec![300, 400])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::AntDesync(AntParams::new(gamma)))
        .seed(seed)
        .build()
        .expect("valid scenario")
}

#[test]
fn desync_colony_still_allocates() {
    // §6 open problem, simplest variant: the staggered colony must still
    // self-stabilize to a near-demand allocation at γ = 1/16 (where the
    // halved collective dip still clears the grey zone).
    let mut engine = desync_config(1, 1.0 / 16.0).build();
    let mut warm = NullObserver;
    engine.run(6000, &mut warm);
    let mut steady = RunSummary::new();
    engine.run(2000, &mut steady);
    let bound = 5.0 / 16.0 * 700.0 + 3.0;
    assert!(
        steady.average_regret() < bound,
        "desync avg regret {} above {bound}",
        steady.average_regret()
    );
    for j in 0..2 {
        let d = engine.colony().demands().demand(j) as f64;
        let w = engine.colony().load(j) as f64;
        assert!((w - d).abs() < 0.35 * d, "task {j}: {w} vs {d}");
    }
}

#[test]
fn desync_is_deterministic_and_survives_perturbations() {
    let mut a = desync_config(2, 1.0 / 16.0).build();
    let mut b = desync_config(2, 1.0 / 16.0).build();
    let mut obs = NullObserver;
    a.run(500, &mut obs);
    b.run(500, &mut obs);
    assert_eq!(a.colony().assignments(), b.colony().assignments());

    a.perturb(&Perturbation::KillRandom { count: 500 });
    a.run(4000, &mut obs);
    assert!(a.colony().recount_consistent());
    let mut steady = RunSummary::new();
    a.run(1000, &mut steady);
    assert!(steady.average_regret() < 400.0);
}

#[test]
fn desync_checkpoint_roundtrips_structurally() {
    // The offset half of an AntDesync colony is always mid-phase; its
    // parity column travels, so the checkpoint roundtrips and resumes
    // into a self-stabilizing run (exactness: the contract oracle).
    let mut engine = desync_config(3, 1.0 / 16.0).build();
    let mut obs = NullObserver;
    engine.run(600, &mut obs);
    let cp = Checkpoint::capture(&engine).expect("every round captures");
    let back = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
    assert_eq!(cp, back);
    let mut resumed = back.restore();
    assert_eq!(resumed.round(), 600);
    resumed.run(2000, &mut obs);
    assert!(resumed.colony().recount_consistent());
    let mut steady = RunSummary::new();
    resumed.run(1000, &mut steady);
    assert!(steady.average_regret() < 5.0 / 16.0 * 700.0 + 3.0);
}

#[test]
fn weighted_regret_integrates_with_engine() {
    let cfg = SimConfig::builder(1500, vec![200, 300])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(4)
        .build()
        .expect("valid scenario");
    let mut engine = cfg.build();
    let mut warm = NullObserver;
    engine.run(4000, &mut warm);

    let mut paper = WeightedRegret::paper();
    let mut lack_heavy = WeightedRegret::new(3.0, 1.0, 0.0);
    let mut with_switches = WeightedRegret::new(1.0, 1.0, 1.0);
    let mut plain = RunSummary::new();
    {
        let mut obs = FnObserver::new(|r: &antalloc_sim::RoundRecord<'_>| {
            paper.record(r.deficits, r.switches);
            lack_heavy.record(r.deficits, r.switches);
            with_switches.record(r.deficits, r.switches);
        });
        let mut both = antalloc_sim::Both(&mut plain, &mut obs);
        engine.run(2000, &mut both);
    }
    // Paper weights reproduce the plain metric exactly.
    assert!((paper.average() - plain.average_regret()).abs() < 1e-9);
    // Ant's steady state is overloaded, so up-weighting lack barely
    // moves the number, and both stay ordered sensibly.
    assert!(lack_heavy.total() >= paper.total());
    assert!(with_switches.total() > paper.total());
    let (_, _, sw) = with_switches.components();
    assert!(sw > 0.0, "switch component must be visible");
}
