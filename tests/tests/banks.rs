//! The bank-stepping contract: for **every** `ControllerSpec` variant,
//! the banked engine is bit-identical, round for round, to the per-ant
//! reference loop (the pre-bank engine semantics) — and mixed colonies
//! survive imperative kill/spawn/checkpoint/restore with exact replays.

use antalloc_core::Controller as _;
use antalloc_env::{ColonyState, DemandVector, Event, InitialConfig, Perturbation};
use antalloc_noise::{FeedbackProbe, NoiseModel};
use antalloc_rng::{reserved, AntRng, StreamSeeder};
use antalloc_sim::{Checkpoint, ConfigError, ControllerSpec, NullObserver, SimConfig};
use antalloc_tests::contract::{check_contract, Round, Trace};
use antalloc_tests::scenarios;

use antalloc_core::{AntParams, ExactGreedyParams};

/// Replays `cfg` with the pre-bank semantics: a flat `Vec<AnyController>`
/// stepped per ant, each through its own probe on its stream for the
/// round, decisions applied in ant order as they are made. The
/// controllers themselves are cloned out of a freshly built engine
/// (`reference_controllers`), so mixed-colony membership matches by
/// construction. The reference models the pure timeline events (demand
/// and noise rewrites, one-shot or cyclic); population shocks,
/// triggers, generators and arenas are the contract oracle's.
fn reference_trace(cfg: &SimConfig, rounds: u64) -> Trace {
    let seeder = StreamSeeder::new(cfg.seed);
    let mut colony = ColonyState::new(cfg.n, DemandVector::new(cfg.demands.clone()));
    cfg.initial
        .apply(&mut colony, &mut seeder.stream(reserved::INIT));
    let mut controllers = cfg.build().reference_controllers();
    let mut noise = cfg.noise.clone();
    let mut deficits = vec![0i64; colony.num_tasks()];
    let mut trace = Trace::default();
    let mut cursor = 0usize;
    let mut fired = Vec::new();
    for round in 1..=rounds {
        cfg.timeline.fire_into(round, &mut cursor, &mut fired);
        for event in fired.drain(..) {
            match event {
                Event::SetDemands(new) => colony.demands_mut().set(&new),
                Event::SetTaskDemand { task, demand } => {
                    colony.demands_mut().set_task(task, demand);
                }
                Event::SetNoise(model) => noise = model,
                other => panic!("reference trace cannot apply {other:?}"),
            }
        }
        colony.deficits_into(&mut deficits);
        let prepared = noise.prepare(round, &deficits, colony.demands().as_slice());
        let mut switches = 0u64;
        let key = seeder.round_key(round);
        for (i, controller) in controllers.iter_mut().enumerate() {
            let mut rng = AntRng::keyed(key, i as u64);
            let mut probe = FeedbackProbe::new(&prepared, &mut rng);
            let next = controller.step(&mut probe);
            if next != colony.assignment(i) {
                switches += 1;
                colony.apply(i, next);
            }
        }
        trace.rounds.push(Round {
            round,
            regret: colony.instant_regret(),
            switches,
            idle: colony.idle_count(),
            loads: colony.loads().to_vec(),
        });
    }
    trace.finish(&colony, &[])
}

#[test]
fn bank_stepping_equals_per_ant_stepping_for_every_spec() {
    for spec in scenarios::specs() {
        let k = if scenarios::single_task(&spec) { 1 } else { 3 };
        for seed in [1u64, 99] {
            let cfg = scenarios::colony(&spec, 120, k, seed).build().unwrap();
            let banked = Trace::of(&mut cfg.build(), 41);
            assert_eq!(
                reference_trace(&cfg, 41),
                banked,
                "trace diverged: {spec:?} seed {seed}"
            );
        }
    }
}

mod properties {
    use super::*;
    use antalloc_env::Timeline;
    use antalloc_tests::contract::check_contract_at;
    use antalloc_tests::scenarios::scenarios;
    use proptest::prelude::*;

    /// `cfg` well-mixed, keeping only the timeline events the per-ant
    /// reference replays (demand and noise rewrites).
    fn pure(mut cfg: SimConfig) -> SimConfig {
        let pure = |e: &Event| e.as_perturbation().is_none();
        cfg.arena = None;
        cfg.timeline.events.retain(|t| pure(&t.event));
        cfg.timeline.cycles.retain(|c| c.events.iter().all(pure));
        cfg.timeline.triggers.clear();
        cfg.timeline.generators.clear();
        cfg
    }

    proptest! {
        /// A generated scenario (any kind, noise model, start and colony
        /// size) without its timeline: bank-stepping reproduces the
        /// per-ant reference round for round.
        #[test]
        fn bank_equals_reference(case in scenarios()) {
            let mut cfg = case.config;
            cfg.arena = None;
            cfg.timeline = Timeline::new();
            let banked = Trace::of(&mut cfg.build(), case.rounds);
            prop_assert_eq!(reference_trace(&cfg, case.rounds), banked);
        }

        /// The same with the generated timeline's demand steps and noise
        /// switches, one-shot or cyclic, which the reference replays.
        #[test]
        fn bank_equals_reference_under_demand_timelines(case in scenarios()) {
            let cfg = pure(case.config);
            let banked = Trace::of(&mut cfg.build(), case.rounds);
            prop_assert_eq!(reference_trace(&cfg, case.rounds), banked);
        }
    }

    /// Timeline-bearing colonies survive checkpoint-restore mid-script:
    /// for every multi-task catalogue spec, a capture somewhere among
    /// kills, spawns, demand steps and scrambles.
    #[test]
    fn mid_timeline_checkpoint_replay_is_exact() {
        for (i, spec) in scenarios::multi_task_specs().iter().enumerate() {
            let mut cfg = scenarios::colony(spec, 120, 2, i as u64)
                .build()
                .expect("valid scenario");
            cfg.timeline = Timeline::new()
                .at(7, Event::Kill { count: 30 })
                .at(19, Event::SetDemands(vec![40, 20]))
                .at(33, Event::Spawn { count: 25 })
                .at(47, Event::Scramble);
            check_contract_at(&cfg, 60, 4 * i as u64 + 6);
        }
    }

    /// Precise Sigmoid checkpoints capture at **any** round — the
    /// half-phase counters travel in the scratch section — wherever in
    /// the 82-round phase the capture lands: phase start, first half,
    /// the pause round, second half, decision round.
    #[test]
    fn sigmoid_mid_phase_checkpoint_restore_is_exact() {
        let spec = &scenarios::kinds()[2];
        for (i, split) in [1u64, 20, 41, 60, 81, 82, 123].into_iter().enumerate() {
            let cfg = scenarios::colony(spec, 100, 2, i as u64).build().unwrap();
            check_contract_at(&cfg, 200, split);
        }
    }

    /// Precise Adversarial checkpoints capture at **any** round — the
    /// ramp/freeze trackers travel in the scratch section — wherever in
    /// the 320-round phase the capture lands: ramp, the freeze round
    /// `r = r1`, the frozen sub-phase, the unanimity decision round.
    #[test]
    fn adversarial_mid_phase_checkpoint_restore_is_exact() {
        let spec = &scenarios::kinds()[3];
        for (i, split) in [30u64, 64, 150, 319].into_iter().enumerate() {
            let cfg = scenarios::colony(spec, 100, 2, i as u64).build().unwrap();
            check_contract_at(&cfg, 340, split);
        }
    }
}

fn mixed_config(seed: u64) -> SimConfig {
    // Phase lengths 2 (Ant), 1 (greedy), 1 (hysteresis) → LCM 2.
    SimConfig::builder(500, vec![120])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Mix(vec![
            (2.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
            (
                1.0,
                ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
            ),
            (
                1.0,
                ControllerSpec::Hysteresis {
                    depth: 2,
                    lazy: Some(0.5),
                },
            ),
        ]))
        .seed(seed)
        .build()
        .expect("valid mixed scenario")
}

#[test]
fn mixed_colony_checkpoint_replay_after_kill_and_spawn_is_exact() {
    let mut obs = NullObserver;
    let mut engine = mixed_config(5).build();
    engine.run(20, &mut obs);
    engine.perturb(&Perturbation::KillRandom { count: 120 });
    engine.run(10, &mut obs);
    engine.perturb(&Perturbation::Spawn { count: 60 });
    engine.run(10, &mut obs); // round 40: a phase boundary (phase 2).

    let cp = Checkpoint::capture(&engine).expect("round 40 is a boundary");
    // The binary format round-trips the membership exactly.
    let restored = Checkpoint::from_bytes(&cp.to_bytes()).expect("decodes");
    assert_eq!(cp, restored);

    // Continue the original; replay the restored copy; compare traces.
    let original = Trace::of(&mut engine, 40);
    original.assert_matches(&Trace::of(&mut restored.restore(), 40), "restored");
}

#[test]
fn mixed_colony_spawn_after_restore_matches_uninterrupted_run() {
    // The spawn's sub-spec draw is keyed by (master seed, stream id),
    // both checkpointed — so perturbing after a restore must match
    // perturbing the uninterrupted engine.
    let mut obs = NullObserver;
    let mut uninterrupted = mixed_config(13).build();
    uninterrupted.run(20, &mut obs);
    let cp = Checkpoint::capture(&uninterrupted).unwrap();
    let mut resumed = cp.restore();

    uninterrupted.perturb(&Perturbation::Spawn { count: 40 });
    resumed.perturb(&Perturbation::Spawn { count: 40 });
    uninterrupted.run(20, &mut obs);
    resumed.run(20, &mut obs);
    assert_eq!(
        uninterrupted.colony().assignments(),
        resumed.colony().assignments()
    );
    assert_eq!(uninterrupted.colony().loads(), resumed.colony().loads());
    let a: Vec<usize> = uninterrupted.bank_census().iter().map(|b| b.ants).collect();
    let b: Vec<usize> = resumed.bank_census().iter().map(|b| b.ants).collect();
    assert_eq!(a, b, "spawns joined the same sub-specs");
}

#[test]
fn mixed_colony_runs_under_sequential_model() {
    let cfg = mixed_config(3);
    let mut a = cfg.build_sequential();
    let mut b = cfg.build_sequential();
    let mut obs = NullObserver;
    a.run(300, &mut obs);
    b.run(300, &mut obs);
    assert_eq!(a.colony().loads(), b.colony().loads());
    assert!(a.colony().recount_consistent());
}

#[test]
fn mix_scenario_roundtrips_through_toml_and_json() {
    // The oracle's rebuild legs: both texts parse back to the config,
    // re-emit the same canonical TOML and replay the same run.
    check_contract(&mixed_config(77), 40);
}

#[test]
fn invalid_mixes_are_rejected_with_typed_errors() {
    use antalloc_sim::ConfigError;
    let build = |spec: ControllerSpec| {
        SimConfig::builder(100, vec![20])
            .controller(spec)
            .build()
            .unwrap_err()
    };
    // Empty.
    let err = build(ControllerSpec::Mix(vec![]));
    assert!(matches!(err, ConfigError::Controller(_)), "{err}");
    // Zero and negative weights.
    for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let err = build(ControllerSpec::Mix(vec![(w, ControllerSpec::Trivial)]));
        assert!(matches!(err, ConfigError::Controller(_)), "w={w}: {err}");
    }
    // Nested mix.
    let err = build(ControllerSpec::Mix(vec![(
        1.0,
        ControllerSpec::Mix(vec![(1.0, ControllerSpec::Trivial)]),
    )]));
    assert!(err.to_string().contains("nested"), "{err}");
    // A sub-spec outside its admissible window is rejected strictly...
    let err = build(ControllerSpec::Mix(vec![(
        1.0,
        ControllerSpec::Ant(AntParams::new(0.125)),
    )]));
    assert!(matches!(err, ConfigError::Controller(_)), "{err}");
    // ...and waivable like any other out-of-spec parameter.
    SimConfig::builder(100, vec![20])
        .controller(ControllerSpec::Mix(vec![(
            1.0,
            ControllerSpec::Ant(AntParams::new(0.125)),
        )]))
        .out_of_spec_params()
        .build()
        .expect("out-of-spec mixes build relaxed");
}

/// The edge of the `u16` task-id encoding: a colony of `MAX_TASKS`
/// tasks keeps the contract with every kind that writes task ids into
/// its columns, starting with every ant on the last task, whose id
/// (4095) sits just below the idle sentinel; one task more is a typed
/// error.
#[test]
fn max_tasks_colony_keeps_the_contract_and_one_more_is_refused() {
    let kinds = scenarios::kinds();
    let spec = ControllerSpec::Mix([0, 2, 3, 6, 5].map(|i| (1.0, kinds[i].clone())).to_vec());
    let config = |k: usize| {
        SimConfig::builder(4096, vec![1; k])
            .noise(NoiseModel::Exact)
            .controller(spec.clone())
            .initial(InitialConfig::AllOnTask(k - 1))
            .seed(11)
            .build()
    };
    let k = antalloc_sim::MAX_TASKS;
    let cfg = config(k).expect("MAX_TASKS tasks are valid");
    let trace = check_contract(&cfg, 8);
    let first = &trace.rounds[0];
    assert!(
        first.loads[k - 1] > 0 && first.idle > 0,
        "task {} kept no ant",
        k - 1
    );
    let err = config(k + 1).unwrap_err();
    assert!(
        matches!(
            err,
            ConfigError::TooManyTasks {
                tasks: 4097,
                max: 4096
            }
        ),
        "{err}"
    );
}
